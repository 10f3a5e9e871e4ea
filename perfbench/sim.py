"""sim-steady: CATS under deterministic simulation.

Boots a ring of ``PEERS`` simulated CATS peers on the emulated network,
waits until every peer has joined and installed an ABD view, and then
drives a measured window of fixed simulated length: the Table-1 lookup
load (one lookup every 2/N simulated seconds) plus a put/get stream of
``OPS_PER_SIM_S`` operations per simulated second, 90% gets over uniform
keys.

Every input (peer ids, lookup keys, operations) comes from ``--seed``; the
simulation itself is deterministic, so one seed gives the same events on
every run and every commit that keeps the protocols.

The window length is fixed in simulated seconds (``--seconds`` times a
nominal speed), so runs of one seed do the same work; the process's CPU
time then measures how fast the program does it.  The simulation loop is
single-threaded, so its CPU time is the wall time it would take on an
otherwise idle CPU: it leaves out the time a shared host takes the CPU
away (which moved the same loop's speed by 6-12% between half-second
samples, and by more across minutes).  Set-up (boot and readiness polling,
all simulation) is timed the same way.

A churning workload (one ``FailNode`` and one ``JoinNode`` per simulated
second) is held back: every crash-stop pattern tried on 64 peers makes
CATS lose acknowledged puts, so its linearizability gate fails on every
seed until that is fixed in the program.
"""

from __future__ import annotations

import gc
import random
import time
from bisect import bisect_right
from statistics import median

from repro import ComponentDefinition
from repro.cats import (
    CatsConfig,
    CatsSimulator,
    Experiment,
    GetCmd,
    JoinNode,
    KeySpace,
    LookupCmd,
    PutCmd,
    WorkloadGenerator,
    WorkloadSpec,
)
from repro.core.dispatch import trigger
from repro.simulation import Simulation

from perfbench.common import (
    CpuTimeHistory,
    Gates,
    history_gates,
    log,
    latency_block,
    peak_rss_mb,
    unique_value,
)

KEY_BITS = 16
CONFIG = CatsConfig(
    key_space=KeySpace(bits=KEY_BITS),
    replication_degree=3,
    stabilize_period=0.5,
    fd_interval=1.0,
    cyclon_period=1.0,
    op_timeout=1.0,
)
#: Simulated seconds between joins while booting.  At 0.05 s a 256-peer
#: boot falls into a join-retry storm that takes 40+ simulated seconds
#: (and a minute of wall time) to settle, and at 0.1 s some seeds still do
#: (3.4 to 10 s of wall time); at 0.2 s every peer is ready as soon as the
#: last one joins.
JOIN_SPACING_S = 0.2
READY_POLL_S = 0.25
#: Simulated seconds after the last join by which the ring must be ready.
READY_LIMIT_S = 120.0
OPS_PER_SIM_S = 100
OPS_SPEC = WorkloadSpec(key_count=1024, read_ratio=0.9, value_size=64, zipf_s=0.0)
WARMUP_SIM_S = 5.0
SETUPS = 3


#: Simulated seconds without new load after the window, so that every
#: operation still retrying gets its answer (or its failure) before the
#: history is checked.
DRAIN_SIM_S = 10.0


PEERS = 256
SMOKE_PEERS = 16
#: Simulated seconds per CPU second on a 2-CPU host (12-13.5 measured):
#: sizes the window so that it takes about ``--seconds`` there.
NOMINAL_SPEED = 13.0


class SimSystem:
    """One booted simulation, ready for load."""

    def __init__(self, seed: int, peers: int) -> None:
        started = time.process_time()
        self.simulation = Simulation(seed=seed)
        built = {}

        class Main(ComponentDefinition):
            def __init__(self) -> None:
                super().__init__()
                built["cats"] = self.create(CatsSimulator, CONFIG)

        self.simulation.bootstrap(Main)
        self.cats: CatsSimulator = built["cats"].definition
        self.cats.history = CpuTimeHistory()
        self.port = self.cats.core.port(Experiment, provided=True).outside
        self.node_ids = random.Random(seed).sample(range(1 << KEY_BITS), peers)
        for node_id in self.node_ids:
            trigger(JoinNode(node_id), self.port)
            self.run_for(JOIN_SPACING_S)
        limit = self.simulation.now() + READY_LIMIT_S
        while not self.ready():
            if self.simulation.now() > limit:
                raise RuntimeError(
                    f"ring not ready {READY_LIMIT_S:.0f} simulated s after boot"
                )
            self.run_for(READY_POLL_S)
        self.setup_s = time.process_time() - started

    def run_for(self, seconds: float) -> None:
        self.simulation.run(until=self.simulation.now() + seconds)

    def ready(self) -> bool:
        for host in self.cats.hosts.values():
            node = host.definition.node.definition
            if not node.joined or node.abd.definition.my_view is None:
                return False
        return True

    def shutdown(self) -> None:
        self.simulation.shutdown()


def inputs(seed: int, peers: int, start: float, length: float) -> list:
    """The window's commands as ``(simulated due time, command)``, sorted."""
    rng = random.Random(seed * 7919 + 1)
    ops = WorkloadGenerator(OPS_SPEC, KEY_BITS, seed=seed)
    space = 1 << KEY_BITS
    timeline = []
    lookup_every = 2.0 / peers
    for index in range(int(length / lookup_every)):
        command = LookupCmd(rng.randrange(space), rng.randrange(space))
        timeline.append((start + index * lookup_every, 0, command))
    puts = 0
    for index in range(int(length * OPS_PER_SIM_S)):
        op = ops.next_op()
        if op.kind == "put":
            puts += 1
            value = unique_value(seed, puts, OPS_SPEC.value_size)
            command = PutCmd(rng.randrange(space), op.key, value)
        else:
            command = GetCmd(rng.randrange(space), op.key)
        timeline.append((start + index / OPS_PER_SIM_S, 1, command))
    timeline.sort(key=lambda item: (item[0], item[1]))
    return [(due, command) for due, _, command in timeline]


def drive(system: SimSystem, commands, chunk_s: float = 1.0) -> dict:
    """Feed ``commands`` at their due times; time each simulated chunk
    in CPU seconds."""
    simulation = system.simulation
    port = system.port
    start = simulation.now()
    chunks = []  # (simulated start, CPU seconds)
    chunk_start = start
    wall_start = time.perf_counter()
    cpu_start = chunk_cpu = time.process_time()
    events_before = simulation.events_dispatched
    for due, command in commands:
        if due > simulation.now():
            simulation.run(until=due)
        if simulation.now() - chunk_start >= chunk_s:
            now = time.process_time()
            chunks.append((chunk_start, now - chunk_cpu))
            chunk_start, chunk_cpu = simulation.now(), now
        trigger(command, port)
    end = commands[-1][0] if commands else start
    simulation.run(until=max(end, simulation.now()) + 1e-9)
    cpu_end = time.process_time()
    chunks.append((chunk_start, cpu_end - chunk_cpu))
    return {
        "sim_start": start,
        "sim_end": simulation.now(),
        "cpu_start": cpu_start,
        "cpu_end": cpu_end,
        "cpu_s": cpu_end - cpu_start,
        "wall_s": time.perf_counter() - wall_start,
        "events": simulation.events_dispatched - events_before,
        "chunks": chunks,
    }


def build(seed: int, peers: int, setups: int) -> tuple[SimSystem, list[float]]:
    """Set up ``setups`` times; keep the last system, return every time."""
    times = []
    for index in range(setups):
        system = SimSystem(seed, peers)
        times.append(system.setup_s)
        if index < setups - 1:
            system.shutdown()
            del system
            gc.collect()
    return system, times


def window_length(seconds: float) -> float:
    return max(2.0, round(seconds * NOMINAL_SPEED))


def measure(seed: int, seconds: float, smoke: bool = False) -> dict:
    """The untraced run."""
    peers = SMOKE_PEERS if smoke else PEERS
    system, setups = build(seed, peers, 1 if smoke else SETUPS)
    system.run_for(WARMUP_SIM_S)
    commands = inputs(seed, peers, system.simulation.now(), window_length(seconds))
    window = drive(system, commands)
    system.run_for(DRAIN_SIM_S)
    result = summarize(system, peers, window)
    result["gates"] = check(system, peers, commands, result)
    result["setup_s"] = median(setups)
    result["setup_runs_s"] = setups
    result["metrics"]["setup_s"] = result["setup_s"]
    result["metrics"]["peak_rss_mb"] = peak_rss_mb()
    system.shutdown()
    log(f"sim-steady: setup {result['setup_s']:.2f}s metrics {result['metrics']}")
    return result


def summarize(system: SimSystem, peers: int, window: dict) -> dict:
    """End-to-end metrics of a driven window (after the drain)."""
    cats = system.cats
    history: CpuTimeHistory = cats.history
    answered = [op for op in history.operations if op.complete]
    # Latency: CPU time of ops invoked and answered inside the window.
    latencies = {"get": [], "put": []}
    invoked, responded = history.cpu_invoked, history.cpu_answered
    for op in answered:
        begin, end = invoked[op.op_id], responded[op.op_id]
        if begin >= window["cpu_start"] and end <= window["cpu_end"]:
            latencies[op.kind].append(end - begin)
    # Throughput: answered ops per CPU second of the simulated chunk in
    # which they were invoked; the median over chunks resists the host's
    # noisy seconds.
    starts = [chunk_start for chunk_start, _ in window["chunks"]]
    done = [0] * len(starts)
    for op in answered:
        index = bisect_right(starts, op.invoke_time) - 1
        if index >= 0 and op.invoke_time < window["sim_end"]:
            done[index] += 1
    per_chunk = [
        count / cpu for count, (_, cpu) in zip(done, window["chunks"]) if cpu > 0 and count
    ]
    simulated = window["sim_end"] - window["sim_start"]
    # Whole-window percentiles: CPU time leaves out the host's stalls that
    # ``parted_block`` guards wall-clock tails against.  About 5% of puts
    # and gets take a slow path (~160 simulated ms against 4-6 ms), so a
    # p95 would sit on that cliff; the p99 lies inside the slow mode.
    get = latency_block(latencies["get"], 99)
    put = latency_block(latencies["put"], 99)
    stats = cats.stats
    return {
        "peers": peers,
        "window_sim_s": simulated,
        "window_cpu_s": window["cpu_s"],
        "window_wall_s": window["wall_s"],
        "sim_speed_x": median(1.0 / cpu for _, cpu in window["chunks"] if cpu > 0),
        "sim_speed_x_overall": simulated / window["cpu_s"],
        "sim_speed_x_wall": simulated / window["wall_s"],
        "events": window["events"],
        "events_per_s": window["events"] / window["cpu_s"],
        "get": get,
        "put": put,
        "lookups": {
            "issued": stats.lookups_issued,
            "completed": stats.lookups_completed,
            "hops_mean": sum(stats.lookup_hops) / max(1, len(stats.lookup_hops)),
        },
        "alive": cats.alive_count,
        "metrics": {
            "ops_per_s": median(per_chunk),
            "get_p50_ms": get["p50_ms"],
            "get_p99_ms": get["p99_ms"],
            "put_p50_ms": put["p50_ms"],
            "put_p99_ms": put["p99_ms"],
        },
    }


def check(system: SimSystem, peers: int, commands, result: dict) -> Gates:
    """Correctness gates over the whole run; fills the op accounting."""
    cats = system.cats
    stats = cats.stats
    history = cats.history
    operations = history.operations
    sent_ops = sum(1 for _, c in commands if isinstance(c, (PutCmd, GetCmd)))
    sent_lookups = sum(1 for _, c in commands if isinstance(c, LookupCmd))
    issued_ops = stats.puts_issued + stats.gets_issued
    answered = sum(1 for op in operations if op.complete)
    failed = stats.puts_failed + stats.gets_failed
    unanswered = len(operations) - answered - failed
    lookups_lost = stats.lookups_issued - stats.lookups_completed
    result["ops"] = {
        "issued": issued_ops,
        "ok": answered,
        "failed": failed,
        "unanswered": unanswered,
        "lookups_unanswered": lookups_lost,
    }
    result["attempted"] = sent_ops + sent_lookups
    result["failed"] = failed + unanswered + lookups_lost
    result["fail_ratio"] = result["failed"] / max(1, result["attempted"])

    gates = Gates()
    gates.check(
        "ring_formed",
        system.ready() and cats.alive_count >= peers,
        {"alive": cats.alive_count, "peers": peers, "all_ready": system.ready()},
    )
    history_gates(gates, history)
    gates.not_applicable("no_dropped_frames", "no TCP endpoint in simulation")
    gates.check(
        "every_op_accounted",
        issued_ops == sent_ops
        and stats.lookups_issued == sent_lookups
        and len(operations) == issued_ops,
        {
            "sent": sent_ops,
            "issued": issued_ops,
            "recorded": len(operations),
            "lookups_sent": sent_lookups,
            "lookups_issued": stats.lookups_issued,
        },
    )
    if "get" in result:
        gates.check(
            "tail_samples",
            result["get"]["tail_supported"] and result["put"]["tail_supported"],
            {"gets": result["get"]["count"], "puts": result["put"]["count"]},
        )
    else:
        gates.not_applicable("tail_samples", "no latency reported by a traced run")
    gates.not_applicable("generator_kept_up", "commands are due in simulated time")
    return gates


def trace(seed: int, seconds: float, smoke: bool = False) -> dict:
    """The traced run: an untraced window, then a traced one of equal length.

    Both windows have the same simulated length and follow each other in
    one simulation; ``trace.overhead_x`` is the traced over the untraced
    CPU time per simulation event.  The traced window starts from the same
    state for a given seed, so its counts repeat exactly.
    """
    from perfbench.trace import Tracer, attributed_layers, span_layers

    peers = SMOKE_PEERS if smoke else PEERS
    system, _ = build(seed, peers, 1)
    system.run_for(WARMUP_SIM_S)
    length = window_length(seconds) / 2
    start = system.simulation.now()
    commands = inputs(seed, peers, start, 2 * length)
    split = bisect_right([due for due, _ in commands], start + length - 1e-9)
    untraced = drive(system, commands[:split])
    emulator = system.simulation.system.services.get("network_emulator")
    before = (emulator.sent, emulator.delivered, emulator.dropped + emulator.lost)
    abd_before = abd_totals(system)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.window() as window:
            traced = drive(system, commands[split:])
    finally:
        tracer.uninstall()
    after = (emulator.sent, emulator.delivered, emulator.dropped + emulator.lost)
    abd_after = abd_totals(system)
    system.run_for(DRAIN_SIM_S)
    result: dict = {}
    result["gates"] = check(system, peers, commands, result)
    export = tracer.export(with_spans=True)
    layers = span_layers(export)
    layers.update({
        "simulation.events": traced["events"],
        "simulation.events_per_s": untraced["events"] / untraced["cpu_s"],
        "simulation.emulator.sent": after[0] - before[0],
        "simulation.emulator.delivered": after[1] - before[1],
        "simulation.emulator.dropped": after[2] - before[2],
        "trace.window_s": window.duration,
        "trace.overhead_x": (traced["cpu_s"] / traced["events"])
        / (untraced["cpu_s"] / untraced["events"]),
    })
    for key, value in abd_after.items():
        layers[f"cats.abd.{key}"] = value - abd_before.get(key, 0)
    result["layers"] = layers
    result["attribution"] = attributed_layers(layers)
    result["attribution_sum_s"] = sum(result["attribution"].values())
    result["spans"] = export
    result["window_sim_s"] = traced["sim_end"] - traced["sim_start"]
    system.shutdown()
    return result


def abd_totals(system: SimSystem) -> dict:
    """ABD counters summed over the peers (no peer joins or leaves in the window)."""
    totals: dict[str, int] = {}
    for host in system.cats.hosts.values():
        status = host.definition.node.definition.abd.definition.status()
        for key in ("ops_completed", "ops_failed", "retries", "view_rejections", "views_installed"):
            totals[key] = totals.get(key, 0) + status[key]
    return totals
