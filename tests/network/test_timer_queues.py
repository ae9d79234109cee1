"""An ``AsyncioEndpoint``'s timers: one FIFO queue and one loop handle per
timer length, driven on a real event loop.

The endpoint never listens here — timers need only the running loop — so
each test is one ``asyncio.run`` of a few short waits.
"""

from __future__ import annotations

import asyncio

from repro.network.asyncio_transport import AsyncioEndpoint

DELAY_MS = 20.0


def endpoint() -> AsyncioEndpoint:
    return AsyncioEndpoint("A", {})


def deadline_counts(ep: AsyncioEndpoint):
    stats = ep.stats
    return stats.deadlines_set, stats.deadlines_fired, stats.deadlines_cancelled


def test_timers_of_one_length_fire_in_arming_order_and_never_early():
    async def scenario():
        ep, loop = endpoint(), asyncio.get_running_loop()
        fired = []
        for name in ("first", "second", "third"):
            due = loop.time() + DELAY_MS / 1000.0
            ep.schedule_deadline(
                DELAY_MS, lambda name=name, due=due: fired.append(
                    (name, loop.time() - due)))
        await asyncio.sleep(3 * DELAY_MS / 1000.0)
        return fired, deadline_counts(ep), ep._timers

    fired, counts, queues = asyncio.run(scenario())
    assert [name for name, _ in fired] == ["first", "second", "third"]
    assert all(late >= 0.0 for _, late in fired), fired
    assert counts == (3, 3, 0)
    assert queues == {}                 # the emptied queue is dropped


def test_a_timer_cancelled_before_it_is_due_never_fires():
    async def scenario():
        ep = endpoint()
        fired = []
        kept = ep.schedule_deadline(DELAY_MS, lambda: fired.append("kept"))
        dropped = ep.schedule_deadline(DELAY_MS, lambda: fired.append("dropped"))
        ep.cancel_deadline(dropped)
        ep.cancel_deadline(dropped)     # idempotent
        ep.cancel_deadline(None)
        await asyncio.sleep(3 * DELAY_MS / 1000.0)
        assert kept is not dropped
        return fired, deadline_counts(ep)

    fired, counts = asyncio.run(scenario())
    assert fired == ["kept"]
    assert counts == (2, 1, 1)


def test_a_cancelled_head_does_not_hold_back_the_timers_behind_it():
    async def scenario():
        ep = endpoint()
        fired = []
        head = ep.schedule_deadline(DELAY_MS, lambda: fired.append("head"))
        ep.schedule_deadline(DELAY_MS, lambda: fired.append("behind"))
        ep.cancel_deadline(head)
        await asyncio.sleep(3 * DELAY_MS / 1000.0)
        return fired

    assert asyncio.run(scenario()) == ["behind"]


def test_a_callback_that_arms_the_same_length_gets_it_on_time():
    """The coordinator's fallback: a replica deadline firing arms the next
    replica's deadline, of the same length, from inside the queue's expiry."""
    async def scenario():
        ep, loop = endpoint(), asyncio.get_running_loop()
        fired_at = []

        def first() -> None:
            fired_at.append(loop.time())
            ep.schedule_deadline(DELAY_MS, lambda: fired_at.append(loop.time()))

        ep.schedule_deadline(DELAY_MS, first)
        await asyncio.sleep(6 * DELAY_MS / 1000.0)
        return fired_at, deadline_counts(ep), ep._timers

    fired_at, counts, queues = asyncio.run(scenario())
    assert len(fired_at) == 2
    gap_ms = (fired_at[1] - fired_at[0]) * 1000.0
    assert DELAY_MS <= gap_ms < 3 * DELAY_MS, gap_ms
    assert counts == (2, 2, 0)
    assert queues == {}


def test_one_timer_costs_one_wake_up():
    """The queue's handle is armed past the head's due time, so asyncio never
    wakes it for a head that is not due yet."""
    async def scenario():
        ep = endpoint()
        wakes = []
        expire = ep._expire

        def counting(*args) -> None:
            wakes.append(args)
            expire(*args)

        ep._expire = counting
        fired = []
        for _ in range(50):
            ep.schedule_task(1.0, lambda: fired.append(True))
            await asyncio.sleep(0.002)
        await asyncio.sleep(0.01)
        return len(fired), len(wakes)

    fired, wakes = asyncio.run(scenario())
    assert fired == 50
    assert wakes == 50


def test_tasks_never_touch_the_deadline_counters():
    async def scenario():
        ep = endpoint()
        fired = []
        ep.schedule_task(DELAY_MS, lambda: fired.append("task"))
        cancelled = ep.schedule_task(DELAY_MS, lambda: fired.append("no"))
        ep.cancel_task(cancelled)
        ep.cancel_task(None)
        await asyncio.sleep(3 * DELAY_MS / 1000.0)
        return fired, deadline_counts(ep)

    fired, counts = asyncio.run(scenario())
    assert fired == ["task"]
    assert counts == (0, 0, 0)


def test_a_raising_callback_costs_only_its_own_timer():
    async def scenario():
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _loop, context: errors.append(context))
        ep = endpoint()
        fired = []

        def boom() -> None:
            raise RuntimeError("timer callback bug")

        ep.schedule_deadline(DELAY_MS, boom)
        ep.schedule_deadline(DELAY_MS, lambda: fired.append("after"))
        await asyncio.sleep(3 * DELAY_MS / 1000.0)
        return fired, errors

    fired, errors = asyncio.run(scenario())
    assert fired == ["after"]
    assert len(errors) == 1
    assert isinstance(errors[0]["exception"], RuntimeError)


def test_close_leaves_no_loop_timer_armed():
    async def scenario():
        ep = endpoint()
        fired = []
        for delay_ms in (DELAY_MS, 2 * DELAY_MS, 3 * DELAY_MS):
            ep.schedule_deadline(delay_ms, lambda: fired.append("deadline"))
            ep.schedule_task(delay_ms, lambda: fired.append("task"))
        handles = [queue.handle for queue in ep._timers.values()]
        assert len(handles) == 3 and all(handles)
        await ep.close()
        await asyncio.sleep(4 * DELAY_MS / 1000.0)
        return fired, handles, ep._timers

    fired, handles, queues = asyncio.run(scenario())
    assert fired == []
    assert all(handle.cancelled() for handle in handles)
    assert queues == {}


def test_arm_cancel_cycles_keep_a_queue_at_the_in_flight_count():
    """10,000 request lifetimes, eight in flight, each cancelled in the order
    it was armed: cancelled timers leave from the head as new ones arrive."""
    in_flight = 8

    async def scenario():
        ep = endpoint()
        armed = [ep.schedule_deadline(10_000.0, lambda: None)
                 for _ in range(in_flight)]
        queue = ep._timers[10_000.0]
        longest = len(queue.timers)
        for _ in range(10_000):
            ep.cancel_deadline(armed.pop(0))
            armed.append(ep.schedule_deadline(10_000.0, lambda: None))
            longest = max(longest, len(queue.timers))
        counts = deadline_counts(ep)
        await ep.close()
        return longest, counts, len(ep._timers)

    longest, counts, queues = asyncio.run(scenario())
    assert longest <= in_flight + 1
    assert counts == (10_000 + in_flight, 0, 10_000)
    assert queues == 0


def test_each_timer_length_has_its_own_queue():
    async def scenario():
        ep = endpoint()
        fired = []
        ep.schedule_deadline(3 * DELAY_MS, lambda: fired.append("long"))
        ep.schedule_deadline(DELAY_MS, lambda: fired.append("short"))
        lengths = sorted(ep._timers)
        await asyncio.sleep(5 * DELAY_MS / 1000.0)
        return fired, lengths, ep._timers

    fired, lengths, queues = asyncio.run(scenario())
    assert lengths == [DELAY_MS, 3 * DELAY_MS]
    assert fired == ["short", "long"]
    assert queues == {}
