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


def test_timers_of_one_length_fire_in_arming_order_and_never_early():
    async def scenario():
        ep, loop = endpoint(), asyncio.get_running_loop()
        fired = []
        for name in ("first", "second", "third"):
            due = loop.time() + DELAY_MS / 1000.0
            ep.schedule(
                DELAY_MS, lambda name=name, due=due: fired.append(
                    (name, loop.time() - due)))
        await asyncio.sleep(3 * DELAY_MS / 1000.0)
        return fired, ep._timers

    fired, queues = asyncio.run(scenario())
    assert [name for name, _ in fired] == ["first", "second", "third"]
    assert all(late >= 0.0 for _, late in fired), fired
    assert queues == {}                 # the emptied queue is dropped


def test_a_timer_cancelled_before_it_is_due_never_fires():
    async def scenario():
        ep = endpoint()
        fired = []
        kept = ep.schedule(DELAY_MS, lambda: fired.append("kept"))
        dropped = ep.schedule(DELAY_MS, lambda: fired.append("dropped"))
        ep.cancel(dropped)
        ep.cancel(dropped)     # idempotent
        ep.cancel(None)
        await asyncio.sleep(3 * DELAY_MS / 1000.0)
        assert kept is not dropped
        return fired

    assert asyncio.run(scenario()) == ["kept"]


def test_a_cancelled_head_does_not_hold_back_the_timers_behind_it():
    async def scenario():
        ep = endpoint()
        fired = []
        head = ep.schedule(DELAY_MS, lambda: fired.append("head"))
        ep.schedule(DELAY_MS, lambda: fired.append("behind"))
        ep.cancel(head)
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
            ep.schedule(DELAY_MS, lambda: fired_at.append(loop.time()))

        ep.schedule(DELAY_MS, first)
        await asyncio.sleep(6 * DELAY_MS / 1000.0)
        return fired_at, ep._timers

    fired_at, queues = asyncio.run(scenario())
    assert len(fired_at) == 2
    gap_ms = (fired_at[1] - fired_at[0]) * 1000.0
    assert DELAY_MS <= gap_ms < 3 * DELAY_MS, gap_ms
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
            ep.schedule(1.0, lambda: fired.append(True))
            await asyncio.sleep(0.002)
        await asyncio.sleep(0.01)
        return len(fired), len(wakes)

    fired, wakes = asyncio.run(scenario())
    assert fired == 50
    assert wakes == 50


def test_a_raising_callback_costs_only_its_own_timer():
    async def scenario():
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _loop, context: errors.append(context))
        ep = endpoint()
        fired = []

        def boom() -> None:
            raise RuntimeError("timer callback bug")

        ep.schedule(DELAY_MS, boom)
        ep.schedule(DELAY_MS, lambda: fired.append("after"))
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
            ep.schedule(delay_ms, lambda: fired.append("deadline"))
            ep.schedule(delay_ms, lambda: fired.append("task"))
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
        armed = [ep.schedule(10_000.0, lambda: None)
                 for _ in range(in_flight)]
        queue = ep._timers[10_000.0]
        longest = len(queue.timers)
        for _ in range(10_000):
            ep.cancel(armed.pop(0))
            armed.append(ep.schedule(10_000.0, lambda: None))
            longest = max(longest, len(queue.timers))
        await ep.close()
        return longest, len(ep._timers)

    longest, queues = asyncio.run(scenario())
    assert longest <= in_flight + 1
    assert queues == 0


def test_each_timer_length_has_its_own_queue():
    async def scenario():
        ep = endpoint()
        fired = []
        ep.schedule(3 * DELAY_MS, lambda: fired.append("long"))
        ep.schedule(DELAY_MS, lambda: fired.append("short"))
        lengths = sorted(ep._timers)
        await asyncio.sleep(5 * DELAY_MS / 1000.0)
        return fired, lengths, ep._timers

    fired, lengths, queues = asyncio.run(scenario())
    assert lengths == [DELAY_MS, 3 * DELAY_MS]
    assert fired == ["short", "long"]
    assert queues == {}
