"""Publish-subscribe event dissemination (paper section 2.3).

The propagation rules, given an event with direction ``d`` arriving at a
port face:

1. Deliver the event to every subscription at the face whose event type
   matches and whose incoming direction is ``d`` (matched handlers are
   captured *now* and enqueued on the subscriber's FIFO work queue —
   paper Fig. 7 semantics: all compatible handlers run sequentially).
2. Continue propagation:

   - at an *outside* face, if ``d`` crosses the boundary inward, recurse on
     the inside face; otherwise forward along the channels attached here;
   - at an *inside* face, if ``d`` is inward-flowing, forward along the
     delegation channels attached here (down to children); otherwise cross
     outward and recurse on the outside face.

As an optimization (explicitly called out by the paper), forwarding along a
channel is skipped when no compatible subscription is transitively reachable
through it; see :func:`leads_to_subscriber`.

Two interchangeable engines implement these rules:

- the **recursive walker** below (:func:`arrive`/:func:`deliver`), which
  re-derives the route for every event — retained as the executable
  reference semantics, the compiler input, and the oracle for the
  differential test suite;
- **compiled dispatch plans** (:mod:`repro.core.routing`), which flatten
  the walk once per topology generation and replay it as a routing table.

:func:`route` picks the engine from ``ComponentSystem.compiled_dispatch``
(plans by default; ``ComponentSystem(compiled_dispatch=False)`` selects
the walker).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import routing
from .errors import PortTypeError
from .event import Direction, Event

if TYPE_CHECKING:  # pragma: no cover
    from .component import ComponentCore
    from .port import PortFace

#: Event-sealing hook, installed by :mod:`repro.analysis.sanitizer` while
#: sanitize mode is active and None otherwise (the None check is the only
#: cost on the default path).  Sealing marks an event as shared: any later
#: mutation raises EventMutationError.
_sanitizer_seal = None

#: Happens-before stamping hook, installed by :mod:`repro.analysis.race`
#: while race tracking is active and None otherwise.  Stamping attaches the
#: triggering execution's vector clock to the event (the trigger→delivery
#: edge of the happens-before model).
_race_stamp = None


def trigger(event: Event, face: "PortFace") -> None:
    """Asynchronously send ``event`` through a port face (paper section 2.2).

    Triggering on a port's *inside* face is the owner emitting an event
    (e.g. a provider triggering an indication); triggering on a child's
    *outside* face is the parent pushing an event into the child (e.g.
    ``trigger(Start(), child.control())``).
    """
    seal = _sanitizer_seal
    if seal is not None:
        seal(event)
    stamp = _race_stamp
    if stamp is not None:
        stamp(event)
    # Fast path: a ``face._fast`` hit means this exact event class already
    # passed the port-type check for this face's trigger direction and has
    # a compiled plan for the current topology generation — one class-keyed
    # dict probe replaces the allowed() lookup and the plan-table lookup.
    # The verdict of allowed() is static per (port type, direction, class),
    # so skipping it on a hit cannot change which triggers raise.
    fast = face._fast
    if fast is not None:
        plan = fast[1].get(event.__class__)
        if plan is not None:
            system = face.port.owner.system
            if system is not None and fast[0] == system._generation:
                plan.execute(event)
                return
    _trigger_slow(event, face)


def _trigger_slow(event: Event, face: "PortFace") -> None:
    """Checked trigger path: validate the type, compile/cache, dispatch."""
    port = face.port
    # The owner emits on the inside face; a parent pushes inward across the
    # boundary on the outside face — precomputed per face at creation.
    direction = face.trigger_direction
    if not port.port_type.allowed(direction, type(event)):
        raise PortTypeError(
            f"{type(event).__name__} may not be triggered in the "
            f"{direction.value} direction of {port.port_type.__name__} "
            f"(at {face!r})"
        )
    system = port.owner.system
    if system is not None and system.compiled_dispatch:
        plan = routing.plan_for(face, type(event), direction)
        fast = face._fast
        if fast is None or fast[0] != plan.generation:
            fast = (plan.generation, {})
            face._fast = fast
        fast[1][type(event)] = plan
        plan.execute(event)
    else:
        arrive(face, event, direction)


def route(face: "PortFace", event: Event, direction: Direction) -> None:
    """Propagate an in-flight event from ``face`` with the active engine.

    Compiled dispatch plans by default; the recursive reference walker when
    the owning system was built with ``compiled_dispatch=False``.
    """
    system = face.port.owner.system
    if system is not None and system.compiled_dispatch:
        routing.execute(face, event, direction)
    else:
        arrive(face, event, direction)


def arrive(face: "PortFace", event: Event, direction: Direction) -> None:
    """Propagate an in-flight event from ``face`` per the rules above.

    This is the recursive *reference walker*: the executable specification
    that :func:`repro.core.routing.compile_plan` flattens and that the
    differential tests replay as the oracle.
    """
    deliver(face, event, direction)
    port = face.port
    inward = direction is port.boundary_inward
    if not face.is_inside:
        if inward:
            arrive(port.inside, event, direction)
        else:
            for channel in tuple(face.channels):
                channel.forward(event, direction, face)
    else:
        if inward:
            for channel in tuple(face.channels):
                channel.forward(event, direction, face)
        else:
            arrive(port.outside, event, direction)


def deliver(face: "PortFace", event: Event, direction: Direction) -> None:
    """Enqueue work on every component with a matching subscription at ``face``.

    Handlers are *matched again at execution time* (Kompics port-queue
    semantics): unsubscribing prevents already-delivered but not-yet-executed
    events from being handled — the paper's reply-only-once example (§2.2)
    relies on this.
    """
    subscriptions = face.subscriptions
    if direction is not face.incoming or not subscriptions:
        return
    event_type = type(event)
    if len(subscriptions) == 1:
        # Allocation-free fast path for the dominant single-subscription
        # face: no snapshot tuple, no owner-dedup dict.
        subscription = subscriptions[0]
        if issubclass(event_type, subscription.event_type):
            subscription.owner.receive_event(event, face)
        return
    owners: dict["ComponentCore", None] = {}
    for subscription in tuple(subscriptions):
        if issubclass(event_type, subscription.event_type):
            owners.setdefault(subscription.owner)
    for owner in owners:
        owner.receive_event(event, face)


def leads_to_subscriber(
    face: "PortFace",
    event_type: type[Event],
    direction: Direction,
    _visited: set[int] | None = None,
) -> bool:
    """Return True if an event of ``event_type`` arriving at ``face`` can
    transitively reach a compatible subscription.

    Used by channels to prune forwarding (paper section 2.3: "our runtime
    system avoids forwarding events on channels that would not lead to any
    compatible subscribed handlers").  Held channels are conservatively
    treated as reachable since queued events are delivered on resume.
    """
    visited = _visited if _visited is not None else set()
    key = id(face)
    if key in visited:
        return False
    visited.add(key)

    if direction is face.incoming and any(
        issubclass(event_type, s.event_type) for s in face.subscriptions
    ):
        return True

    port = face.port
    inward = direction is port.boundary_inward
    if not face.is_inside:
        if inward:
            return leads_to_subscriber(port.inside, event_type, direction, visited)
        channels = face.channels
    else:
        if not inward:
            return leads_to_subscriber(port.outside, event_type, direction, visited)
        channels = face.channels
    for channel in channels:
        if channel.held:
            return True
        other = channel.other_end(face)
        if other is None:
            return True  # unplugged end queues events; conservatively reachable
        if leads_to_subscriber(other, event_type, direction, visited):
            return True
    return False
