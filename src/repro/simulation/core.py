"""The deterministic simulation runtime (paper section 3, "Deterministic
Simulation Mode").

A :class:`Simulation` wraps a :class:`~repro.runtime.system.ComponentSystem`
whose clock is virtual, whose scheduler is the deterministic FIFO
:class:`~repro.runtime.scheduler.ManualScheduler`, and whose time-dependent
services (timers, the network emulator) post to one discrete-event queue.

The simulation loop alternates two phases, exactly like the paper's
simulation scheduler: execute ready components until quiescence, then
advance virtual time to the next queued event and dispatch it.  Given the
same seed and the same component code, every run is identical.

Two run-loop engines share that contract (see ``docs/internals.md``,
"Simulation hot path"):

- the default *batched* loop pops every entry due at the next timestamp in
  one queue operation and dispatches them back-to-back — draining the
  scheduler after each entry, so the executed trace is identical to the
  entry-at-a-time loop;
- the *legacy* loop (one pop per dispatch) runs whenever exactness of pop
  granularity matters: the ``queue_engine="heap"`` oracle engine, an
  installed ``picker`` (schedule exploration), or a ``max_dispatches``
  budget.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.errors import SimulationError
from ..runtime.clock import VirtualClock
from ..runtime.scheduler import ManualScheduler
from ..runtime.system import ComponentSystem
from .event_queue import HeapEventQueue, make_event_queue

QUEUE_SERVICE = "simulation_event_queue"

#: Timed-dispatch hook, installed by :mod:`repro.analysis.race` while race
#: tracking is active and None otherwise.  When set, each popped queue
#: entry is executed through ``hook(entry)`` so its action runs in a fresh
#: logical context seeded from the entry's schedule-time vector clock —
#: consecutive timed dispatches are *not* ordered with each other (the
#: loop's serialization is an artifact), only with their schedulers.
_race_dispatch_entry = None


class Simulation:
    """A deterministic, virtual-time component system."""

    def __init__(
        self,
        seed: int = 0,
        fault_policy: str = "raise",
        prune_channels: bool = True,
        compiled_dispatch: bool = True,
        name: str = "simulation",
        queue_engine: str = "wheel",
    ) -> None:
        self.clock = VirtualClock()
        self.scheduler = ManualScheduler()
        #: ``"wheel"`` (default) or ``"heap"`` (the reference oracle).
        self.queue = make_event_queue(queue_engine)
        self.queue_engine = "heap" if isinstance(self.queue, HeapEventQueue) else "wheel"
        # The deterministic runtime dispatches through the same compiled
        # plans as the production system: plan compilation depends only on
        # the topology, never on time or scheduling, so simulated traces
        # are engine-independent (the differential suite pins this).
        self.system = ComponentSystem(
            scheduler=self.scheduler,
            clock=self.clock,
            seed=seed,
            fault_policy=fault_policy,
            prune_channels=prune_channels,
            compiled_dispatch=compiled_dispatch,
            name=name,
        )
        self.system.register_service(QUEUE_SERVICE, self.queue)
        if self.queue_engine == "heap":
            # The oracle engine is the pre-wheel simulator end to end: the
            # entry-at-a-time loop *and* the generic locked execution paths
            # (run_to_quiescence/execute, condition-locked ready/idle).
            # Differential tests then pin the whole new engine, and the
            # benchmark ratio measures the whole overhaul.  Must be set
            # before bootstrap: component cores cache the flag.
            self.system._single_threaded = False
        self._stop_requested = False
        self.events_dispatched = 0
        # Same-timestamp entries not yet dispatched when stop() interrupted
        # a batch; the next run() resumes them before touching the queue.
        self._pending_batch: Optional[list] = None
        self._pending_index = 0

    # ------------------------------------------------------------- scheduling

    def now(self) -> float:
        return self.clock.now()

    def schedule(self, delay: float, action: Callable[[], None]):
        """Schedule an action ``delay`` virtual seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.queue.schedule(self.clock.now() + delay, action)

    def stop(self) -> None:
        """Request the run loop to stop after the current dispatch."""
        self._stop_requested = True

    # -------------------------------------------------------------- main loop

    def run(
        self,
        until: Optional[float] = None,
        max_dispatches: Optional[int] = None,
    ) -> str:
        """Run the simulation; returns why it stopped.

        ``"quiescent"``  — no ready components and no future events;
        ``"horizon"``    — the next event lies beyond ``until``;
        ``"stopped"``    — :meth:`stop` was called;
        ``"budget"``     — ``max_dispatches`` timed events were dispatched.
        """
        self._stop_requested = False
        if (
            self.queue_engine != "wheel"
            or self.queue.picker is not None
            or max_dispatches is not None
        ):
            return self._run_legacy(until, max_dispatches)
        return self._run_batched(until)

    def _run_batched(self, until: Optional[float]) -> str:
        """Batched timed dispatch: one queue pop per timestamp.

        Equivalent to the legacy loop entry-for-entry — each batch entry is
        re-checked for cancellation, dispatched through the race hook when
        installed, and followed by a full scheduler drain — so executed
        traces (and ``Tracer.fingerprint()``) are byte-identical.
        """
        queue = self.queue
        clock = self.clock
        drain = self.scheduler.drain
        drain()
        if self._stop_requested:
            return "stopped"
        batch = self._pending_batch or ()
        index = self._pending_index
        self._pending_batch = None
        dispatched = self.events_dispatched
        fired = 0
        try:
            while True:
                size = len(batch)
                while index < size:
                    entry = batch[index]
                    index += 1
                    if entry.cancelled:
                        continue
                    dispatched += 1
                    fired += 1
                    hook = _race_dispatch_entry
                    if hook is None:
                        entry.action()
                    else:
                        hook(entry)
                    drain()
                    if self._stop_requested:
                        if index < size:
                            self._pending_batch = list(batch)
                            self._pending_index = index
                        return "stopped"
                popped = queue.pop_batch(until)
                if popped is None:
                    return "quiescent"
                time, batch = popped
                if batch is None:
                    clock.advance_to(until)
                    return "horizon"
                index = 0
                clock.advance_to(time)
        finally:
            self.events_dispatched = dispatched
            queue.fired_total += fired

    def _run_legacy(
        self, until: Optional[float], max_dispatches: Optional[int]
    ) -> str:
        """The original entry-at-a-time loop (oracle / picker / budget)."""
        pending = self._pending_batch
        if pending is not None:
            # A batch interrupted by stop() under the batched loop (only the
            # wheel engine batches): re-queue the undispatched tail at its
            # original (time, sequence) so nothing is lost or reordered.
            self._pending_batch = None
            for entry in pending[self._pending_index:]:
                if not entry.cancelled:
                    self.queue._append(entry)
        while True:
            self.scheduler.run_to_quiescence()
            if self._stop_requested:
                return "stopped"
            if max_dispatches is not None and self.events_dispatched >= max_dispatches:
                return "budget"
            next_time = self.queue.peek_time()
            if next_time is None:
                return "quiescent"
            if until is not None and next_time > until:
                self.clock.advance_to(until)
                return "horizon"
            entry = self.queue.pop_due()
            assert entry is not None
            self.clock.advance_to(entry.time)
            self.events_dispatched += 1
            hook = _race_dispatch_entry
            if hook is None:
                entry.action()
            else:
                hook(entry)

    # -------------------------------------------------------------- profiling

    def profile(self):
        """Start collecting a hot-path profile; returns the profiler.

        Usage::

            with sim.profile() as prof:
                sim.run(until=...)
            print(prof.report(top=10))

        See :class:`repro.simulation.profile.SimulationProfiler`.
        """
        from .profile import SimulationProfiler

        return SimulationProfiler(self)

    # ------------------------------------------------------------ convenience

    def bootstrap(self, definition, *args, **kwargs):
        return self.system.bootstrap(definition, *args, **kwargs)

    def shutdown(self) -> None:
        self.system.shutdown()


def queue_of(system: ComponentSystem):
    """The simulation event queue of ``system`` (simulation mode only)."""
    queue = system.services.get(QUEUE_SERVICE)
    if queue is None:
        raise SimulationError(
            "this ComponentSystem is not running in simulation mode "
            f"(no {QUEUE_SERVICE!r} service)"
        )
    return queue  # type: ignore[return-value]
