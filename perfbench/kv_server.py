"""The kv-tcp system under test: a 3-node CATS ring over AioTcpNetwork.

Runs as a child process of the benchmark (``perfbench/kv.py`` spawns it).
It hosts a bootstrap server and three CATS nodes, each with its own
``AioTcpNetwork`` endpoint on localhost, a ``ThreadTimer`` and a
``RemoteApiServer``, all on one ``WorkStealingScheduler``.  The process
talks to its parent over stdin/stdout, one JSON object per line:

- on start it polls until every node has joined the ring and installed
  an ABD view, then prints ``{"event": "ready", ...}`` with the remote-API
  address of node 0 and the time it took;
- ``status`` on stdin prints the endpoint, scheduler and ABD counters
  (the traced run asks at every phase boundary);
- ``stop`` (or end of input) prints the final counters, the process's peak
  resident memory and, when traced, the per-layer accumulators, then
  shuts the system down and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

#: Ring ids of the three nodes: evenly spread over the 16-bit key space.
NODE_IDS = (8_000, 28_000, 48_000)
#: Scheduler workers.  One worker keeps the saturate phase steady (about
#: +-4% run to run on 2 CPUs; two workers gave +-10%, the GIL makes the
#: second one mostly contend).
WORKERS = 1
#: Readiness is polled, never slept for: this is the polling period.
READY_POLL_S = 0.005
READY_TIMEOUT_S = 60.0


def build_cluster():
    """Assemble (not yet ready) the cluster; returns ``(system, root)``."""
    from repro import ComponentDefinition, ComponentSystem, WorkStealingScheduler
    from repro.cats import CatsConfig, CatsNode, KeySpace, PutGet, RemoteApiServer
    from repro.network import Address, AioTcpNetwork, Network
    from repro.protocols.bootstrap import BootstrapServer
    from repro.timer import ThreadTimer, Timer

    class BootstrapHost(ComponentDefinition):
        def __init__(self) -> None:
            super().__init__()
            self.net = self.create(AioTcpNetwork, Address("127.0.0.1", 0, node_id=0))
            self.address = self.net.definition.address
            timer = self.create(ThreadTimer)
            server = self.create(BootstrapServer, self.address)
            self.connect(self.net.provided(Network), server.required(Network))
            self.connect(timer.provided(Timer), server.required(Timer))

    class CatsTcpHost(ComponentDefinition):
        def __init__(self, node_id: int, bootstrap) -> None:
            super().__init__()
            self.net = self.create(AioTcpNetwork, Address("127.0.0.1", 0, node_id=node_id))
            self.address = self.net.definition.address
            timer = self.create(ThreadTimer)
            self.node = self.create(
                CatsNode,
                self.address,
                CatsConfig(
                    key_space=KeySpace(bits=16),
                    replication_degree=3,
                    bootstrap_server=bootstrap,
                    stabilize_period=0.3,
                    fd_interval=0.5,
                ),
            )
            api = self.create(RemoteApiServer, self.address)
            for child in (self.node, api):
                self.connect(self.net.provided(Network), child.required(Network))
            self.connect(timer.provided(Timer), self.node.required(Timer))
            self.connect(self.node.provided(PutGet), api.required(PutGet))

    class Cluster(ComponentDefinition):
        def __init__(self) -> None:
            super().__init__()
            self.bootstrap = self.create(BootstrapHost)
            self.hosts = [
                self.create(CatsTcpHost, node_id, self.bootstrap.definition.address)
                for node_id in NODE_IDS
            ]

    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=WORKERS))
    return system, system.bootstrap(Cluster).definition


def nodes(cluster):
    return [host.definition.node.definition for host in cluster.hosts]


def endpoints(cluster):
    return [cluster.bootstrap.definition.net.definition] + [
        host.definition.net.definition for host in cluster.hosts
    ]


def ready(cluster) -> bool:
    return all(n.joined and n.abd.definition.my_view is not None for n in nodes(cluster))


def counters(cluster, system) -> dict:
    return {
        "aio": [endpoint.status_snapshot() for endpoint in endpoints(cluster)],
        "abd": [n.abd.definition.status() for n in nodes(cluster)],
        "scheduler": system.scheduler.stats(),
        "joined": [n.joined for n in nodes(cluster)],
        "workers": WORKERS,
    }


class QueueSampler:
    """Samples the frames queued in ``endpoints`` every few ms; keeps the peak."""

    PERIOD_S = 0.005

    def __init__(self, endpoints) -> None:
        self.endpoints = endpoints
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="queue-sampler", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            queued = sum(e.status_snapshot()["queued_frames"] for e in self.endpoints)
            self.peak = max(self.peak, queued)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, default=None, help="pin the process to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})  # before any thread starts: all inherit it

    started = time.perf_counter()
    tracer = None
    if args.trace:
        from perfbench.trace import Tracer

        tracer = Tracer()
        tracer.install()
    system, cluster = build_cluster()
    deadline = started + READY_TIMEOUT_S
    while not ready(cluster):
        if time.perf_counter() > deadline:
            emit({"event": "error", "error": "cluster not ready", **counters(cluster, system)})
            system.shutdown()
            return 1
        time.sleep(READY_POLL_S)
    api = cluster.hosts[0].definition.address
    emit({
        "event": "ready",
        "setup_s": time.perf_counter() - started,
        "api": [api.host, api.port, api.node_id],
        **counters(cluster, system),
    })
    sampler = None
    if tracer is not None:
        tracer.reset()
        sampler = QueueSampler(endpoints(cluster))
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "status":
                emit({"event": "status", **counters(cluster, system)})
            elif command == "stop":
                break
        final = {"event": "final", **counters(cluster, system)}
        final["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            sampler.stop()
            tracer.uninstall()
            final["trace"] = tracer.export()
            final["queued_peak"] = sampler.peak
        emit(final)
    finally:
        system.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
