"""What the benchmark measures: workloads, metrics, and the layer map.

``BENCHMARK.json`` at the repository root states the same workloads and
metrics; the self-test keeps the two equal.
"""

from __future__ import annotations

WORKLOADS = {
    "sim-steady": (
        "Table 1: 256 simulated peers, periodic protocols, lookups every 2/N s, "
        "100 ops/s put/get; queue, wheel, emulator and warm dispatch plans, "
        "no codec, socket or thread"
    ),
    "kv-tcp": (
        "Paper Fig. 10: 3-node CATS ring over AioTcpNetwork in a child process; "
        "open loop at a quarter of capacity, then a closed loop of 16 that backs "
        "up the outboxes"
    ),
}

#: name -> (unit, better, bound).  On a shared 2-vCPU host the same
#: CPU-bound loop varies 6-12% in speed between half-second samples and
#: drifts by more across minutes, which sets the timing bounds; memory is
#: steady to 2%.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("ops/s", "higher", 0.25),
    "get_p50_ms": ("ms", "lower", 0.25),
    "get_p99_ms": ("ms", "lower", 0.25),
    "put_p50_ms": ("ms", "lower", 0.25),
    "put_p99_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: What each end-to-end metric means on each workload.
END_TO_END_MEANING = {
    "setup_s": "start to ready (every node joined, every ABD view installed), median of several set-ups",
    "ops_per_s": "sim-steady: answered put/get per CPU s of the simulation, median over 1-s simulated chunks; kv-tcp: completed ops per s of the closed-loop saturate phase",
    "get_p50_ms": "sim-steady: CPU time from a get's invocation to its answer; kv-tcp: saturate phase, from issue to answer (the light phase's latency from the due time is in the record only: on a shared VM it drifts with the host's load beyond any bound)",
    "get_p99_ms": "as get_p50_ms, 99th percentile; sim-steady: over the whole window; kv-tcp: each latency is the median over the phase's four quarters of that quarter's value",
    "put_p50_ms": "as get_p50_ms, for puts",
    "put_p99_ms": "as put_p50_ms, 99th percentile",
    "peak_rss_mb": "peak resident memory of the process hosting the system under test",
}

#: name -> (unit, better)
PER_LAYER = {
    "core.dispatch.triggers": ("count", "lower"),
    "core.dispatch.self_s": ("s", "lower"),
    "core.routing.plans_compiled": ("count", "lower"),
    "core.routing.compile_s": ("s", "lower"),
    "core.routing.plan_miss_ratio": ("ratio", "lower"),
    "core.component.executions": ("count", "lower"),
    "core.component.handler_self_s": ("s", "lower"),
    "core.component.created": ("count", "lower"),
    "core.component.destroyed": ("count", "lower"),
    "runtime.system.generation_bumps": ("count", "lower"),
    "runtime.scheduler.slots": ("count", "lower"),
    "runtime.scheduler.self_s": ("s", "lower"),
    "runtime.scheduler.ready_wait_s": ("s", "lower"),
    "runtime.work_stealing.steals": ("count", "lower"),
    "runtime.work_stealing.moved": ("count", "lower"),
    "simulation.queue.scheduled": ("count", "lower"),
    "simulation.queue.cancelled": ("count", "lower"),
    "simulation.queue.batches": ("count", "lower"),
    "simulation.queue.self_s": ("s", "lower"),
    "simulation.queue.live_peak": ("count", "lower"),
    "simulation.events": ("count", "lower"),
    "simulation.events_per_s": ("1/s", "higher"),
    "simulation.driver_residual_s": ("s", "lower"),
    "simulation.emulator.sent": ("count", "lower"),
    "simulation.emulator.delivered": ("count", "lower"),
    "simulation.emulator.dropped": ("count", "lower"),
    "simulation.emulator.self_s": ("s", "lower"),
    "network.codec.encodes": ("count", "lower"),
    "network.codec.decodes": ("count", "lower"),
    "network.codec.encode_s": ("s", "lower"),
    "network.codec.decode_s": ("s", "lower"),
    "network.codec.bytes_per_msg": ("B", "lower"),
    "network.codec.compress_win_ratio": ("ratio", "higher"),
    "network.aio.sent": ("count", "higher"),
    "network.aio.received": ("count", "higher"),
    "network.aio.batches": ("count", "lower"),
    "network.aio.avg_batch": ("msgs", "higher"),
    "network.aio.queued_peak": ("count", "lower"),
    "network.aio.dropped_frames": ("count", "lower"),
    "network.aio.reconnects": ("count", "lower"),
    "network.aio.send_s": ("s", "lower"),
    "network.aio.light.sent": ("count", "higher"),
    "network.aio.light.avg_batch": ("msgs", "higher"),
    "network.aio.saturate.sent": ("count", "higher"),
    "network.aio.saturate.avg_batch": ("msgs", "higher"),
    "timer.scheduled": ("count", "lower"),
    "timer.cancelled": ("count", "lower"),
    "timer.cancel_ratio": ("ratio", "lower"),
    "cats.abd.ops_completed": ("count", "higher"),
    "cats.abd.ops_failed": ("count", "lower"),
    "cats.abd.retries": ("count", "lower"),
    "cats.abd.view_rejections": ("count", "lower"),
    "cats.abd.views_installed": ("count", "lower"),
    "cats.abd.handler_s": ("s", "lower"),
    "cats.ring.handler_s": ("s", "lower"),
    "cats.lookup.hops_mean": ("hops", "lower"),
    "protocols.router.handler_s": ("s", "lower"),
    "protocols.fd.handler_s": ("s", "lower"),
    "protocols.cyclon.handler_s": ("s", "lower"),
    "trace.window_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_x": ("x", "lower"),
    "trace.spans": ("count", "lower"),
}

#: Which end-to-end metric each layer metric should move, on which workload.
LAYER_MAP = [
    {"layer": "core.dispatch", "metrics": ["core.dispatch.triggers", "core.dispatch.self_s"],
     "should_move": "ops_per_s on sim-steady; on kv-tcp ops_per_s, and the record's light-phase latency"},
    {"layer": "core.routing", "metrics": ["core.routing.plans_compiled", "core.routing.compile_s", "core.routing.plan_miss_ratio"],
     "should_move": "near flat on sim-steady (plans stay warm); a churning workload, held back until CATS survives crash-stop churn, is where they would move ops_per_s"},
    {"layer": "core.component", "metrics": ["core.component.executions", "core.component.handler_self_s", "core.component.created", "core.component.destroyed"],
     "should_move": "ops_per_s on sim-steady; created and destroyed read 0 in every measured window, because no workload churns yet"},
    {"layer": "runtime.system", "metrics": ["runtime.system.generation_bumps"],
     "should_move": "near flat on sim-steady; moves with churn, which no workload has yet"},
    {"layer": "runtime.scheduler / runtime.work_stealing", "metrics": ["runtime.scheduler.slots", "runtime.scheduler.self_s", "runtime.scheduler.ready_wait_s", "runtime.work_stealing.steals", "runtime.work_stealing.moved"],
     "should_move": "get_p99_ms and ops_per_s on kv-tcp"},
    {"layer": "simulation.event_queue / wheel", "metrics": ["simulation.queue.scheduled", "simulation.queue.cancelled", "simulation.queue.batches", "simulation.queue.self_s", "simulation.queue.live_peak"],
     "should_move": "ops_per_s on sim-steady"},
    {"layer": "simulation.core", "metrics": ["simulation.events", "simulation.events_per_s", "simulation.driver_residual_s"],
     "should_move": "ops_per_s on sim-steady"},
    {"layer": "simulation.emulator", "metrics": ["simulation.emulator.sent", "simulation.emulator.delivered", "simulation.emulator.dropped", "simulation.emulator.self_s"],
     "should_move": "ops_per_s on sim-steady"},
    {"layer": "network.serialization / compact", "metrics": ["network.codec.encodes", "network.codec.decodes", "network.codec.encode_s", "network.codec.decode_s", "network.codec.bytes_per_msg", "network.codec.compress_win_ratio"],
     "should_move": "ops_per_s and the record's light-phase latency on kv-tcp; zero on sim"},
    {"layer": "network.aio", "metrics": ["network.aio.sent", "network.aio.received", "network.aio.batches", "network.aio.avg_batch", "network.aio.light.sent", "network.aio.light.avg_batch", "network.aio.saturate.sent", "network.aio.saturate.avg_batch", "network.aio.queued_peak", "network.aio.dropped_frames", "network.aio.reconnects", "network.aio.send_s"],
     "should_move": "light.avg_batch near 1 and saturate.avg_batch higher -> ops_per_s on kv-tcp; send_s -> the record's light-phase latency; zero on sim"},
    {"layer": "timer / simulation.sim_timer", "metrics": ["timer.scheduled", "timer.cancelled", "timer.cancel_ratio"],
     "should_move": "ops_per_s on both workloads"},
    {"layer": "cats.abd", "metrics": ["cats.abd.ops_completed", "cats.abd.ops_failed", "cats.abd.retries", "cats.abd.view_rejections", "cats.abd.views_installed", "cats.abd.handler_s"],
     "should_move": "failed/attempted and put_p50_ms"},
    {"layer": "cats.ring / protocols", "metrics": ["cats.ring.handler_s", "cats.lookup.hops_mean", "protocols.router.handler_s", "protocols.fd.handler_s", "protocols.cyclon.handler_s"],
     "should_move": "ops_per_s on sim-steady"},
    {"layer": "trace", "metrics": ["trace.window_s", "trace.unattributed_s", "trace.overhead_x", "trace.spans"],
     "should_move": "nothing: the traced window, its unattributed residual and the cost of tracing"},
]


def benchmark_json(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` this module describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
