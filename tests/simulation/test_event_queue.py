"""Unit tests for the wheel-backed simulation event queue.

Pins the properties the hot-loop overhaul introduced: O(1) live-entry
``len``/``bool``, immediate unlinking of cancelled entries, lazy bucket
compaction, batched popping (``pop_batch``), allocation-free ``reschedule``,
and that the analysis hooks (``picker``, ``_race_stamp_entry``) still work
on the new engine.
"""

from __future__ import annotations

import pytest

from repro.simulation import event_queue as eq_mod
from repro.simulation.event_queue import EventQueue, HeapEventQueue, make_event_queue


def nop() -> None:
    pass


# --------------------------------------------------------------- construction


def test_make_event_queue_engines():
    assert isinstance(make_event_queue(), EventQueue)
    assert isinstance(make_event_queue("wheel"), EventQueue)
    assert isinstance(make_event_queue("heap"), HeapEventQueue)
    with pytest.raises(ValueError):
        make_event_queue("splay")


# ------------------------------------------------------------------- ordering


@pytest.mark.parametrize("engine", ["wheel", "heap"])
def test_fifo_within_equal_timestamps(engine):
    queue = make_event_queue(engine)
    fired = []
    for name in "abc":
        queue.schedule(1.0, lambda name=name: fired.append(name))
    queue.schedule(0.5, lambda: fired.append("first"))
    while True:
        entry = queue.pop_due()
        if entry is None:
            break
        entry.action()
    assert fired == ["first", "a", "b", "c"]


# -------------------------------------------------------- live-entry counting


def test_len_is_live_count_not_debris():
    queue = EventQueue()
    entries = [queue.schedule(float(i % 3), nop) for i in range(30)]
    assert len(queue) == 30 and bool(queue)
    for entry in entries[:20]:
        entry.cancel()
    assert len(queue) == 10
    for entry in entries[20:]:
        entry.cancel()
    assert len(queue) == 0 and not queue
    # Cancellation unlinked everything: no buckets, empty wheel.
    stats = queue.stats()
    assert stats["live"] == 0
    assert stats["buckets"] == 0
    assert stats["count"] == 0
    assert stats["far_live"] == 0
    assert queue.pop_due() is None
    assert queue.pop_batch() is None


def test_cancel_is_idempotent():
    queue = EventQueue()
    entry = queue.schedule(1.0, nop)
    entry.cancel()
    entry.cancel()
    assert len(queue) == 0


def test_bucket_compaction_under_partial_cancellation():
    """Cancelled tombstones inside a bucket are compacted away lazily."""
    queue = EventQueue()
    entries = [queue.schedule(1.0, nop) for _ in range(100)]
    bucket = entries[0].bucket
    for entry in entries[:90]:
        entry.cancel()
    assert len(queue) == 10
    assert len(bucket.entries) <= 20, "tombstones should have been compacted"
    time, batch = queue.pop_batch()
    assert time == 1.0
    assert [e.sequence for e in batch] == [e.sequence for e in entries[90:]]


def test_bounded_under_far_future_schedule_cancel_churn():
    """A schedule/cancel storm leaves no unbounded debris anywhere."""
    queue = EventQueue()
    keeper = queue.schedule(2_000_000.0, nop)
    for i in range(10_000):
        queue.schedule(1_000_000.0 + i, nop).cancel()
    stats = queue.stats()
    assert len(queue) == 1
    assert stats["buckets"] == 1
    assert stats["far_heap"] < 500, stats
    assert not keeper.cancelled


# -------------------------------------------------------------------- popping


def test_pop_batch_fifo_and_cancellation():
    queue = EventQueue()
    entries = [queue.schedule(1.0, nop) for _ in range(4)]
    entries[1].cancel()
    queue.schedule(2.0, nop)
    time, batch = queue.pop_batch()
    assert time == 1.0
    assert batch == [entries[0], entries[2], entries[3]]
    assert all(e.bucket is None for e in entries)
    assert len(queue) == 1


def test_pop_batch_until_peeks_without_popping():
    queue = EventQueue()
    queue.schedule(5.0, nop)
    assert queue.pop_batch(until=4.0) == (5.0, None)
    assert len(queue) == 1  # nothing was consumed
    time, batch = queue.pop_batch(until=5.0)
    assert time == 5.0 and len(batch) == 1
    assert queue.pop_batch() is None


def test_pop_due_skips_tombstones_in_place():
    queue = EventQueue()
    a = queue.schedule(1.0, nop)
    b = queue.schedule(1.0, nop)
    a.cancel()
    assert queue.pop_due() is b
    assert queue.pop_due() is None


# ---------------------------------------------------------------- reschedule


def test_reschedule_reuses_the_entry():
    queue = EventQueue()
    entry = queue.schedule(1.0, nop)
    first_sequence = entry.sequence
    time, (popped,) = queue.pop_batch()
    assert popped is entry
    again = queue.reschedule(entry, 3.0)
    assert again is entry
    assert entry.time == 3.0
    assert entry.sequence > first_sequence  # insertion order stays global
    assert not entry.cancelled
    assert queue.pop_batch() == (3.0, [entry])


def test_reschedule_rejects_queued_entries():
    queue = EventQueue()
    entry = queue.schedule(1.0, nop)
    with pytest.raises(ValueError):
        queue.reschedule(entry, 2.0)


# ------------------------------------------------------------- analysis hooks


@pytest.mark.parametrize("engine", ["wheel", "heap"])
def test_picker_chooses_among_equal_timestamps(engine):
    queue = make_event_queue(engine)
    fired = []
    for name in "abc":
        queue.schedule(1.0, lambda name=name: fired.append(name))
    queue.picker = lambda due: len(due) - 1  # always pick the newest
    while True:
        entry = queue.pop_due()
        if entry is None:
            break
        entry.action()
    assert fired == ["c", "b", "a"]


@pytest.mark.parametrize("engine", ["wheel", "heap"])
def test_race_stamp_hook_runs_on_schedule_and_reschedule(engine, monkeypatch):
    stamped = []
    monkeypatch.setattr(eq_mod, "_race_stamp_entry", stamped.append)
    queue = make_event_queue(engine)
    entry = queue.schedule(1.0, nop)
    assert stamped == [entry]
    popped = queue.pop_due()
    queue.reschedule(popped, 2.0)
    assert len(stamped) == 2


# ------------------------------------------------------------------- counters


def test_scheduled_and_fired_totals():
    queue = EventQueue()
    for _ in range(5):
        queue.schedule(1.0, nop)
    queue.schedule(2.0, nop)
    assert queue.scheduled_total == 6
    queue.pop_due()  # fired_total is run-loop-maintained for pop_batch,
    assert queue.fired_total == 1  # but pop_due counts itself
