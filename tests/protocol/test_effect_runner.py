"""The effect runner over both backends' transports.

The runner is the one place that knows whether a timer is a
failure-detection deadline or a task: it counts deadlines in the transport's
``deadlines_set / _fired / _cancelled`` and leaves tasks out.  The transports
implement only the four-method contract of :mod:`repro.network.base`.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.kvstore.protocol.effects import ClearTimer, EffectRunner, SetTimer
from repro.network.asyncio_transport import AsyncioEndpoint
from repro.network.base import ProtocolTransport
from repro.network.simulator import Simulation
from repro.network.transport import Transport

DELAY_MS = 5.0

#: A deadline that fires, a deadline cleared twice, a task that fires and a
#: task cleared.
ARM = [
    SetTimer(("deadline", "fires"), DELAY_MS),
    SetTimer(("deadline", "cleared"), DELAY_MS),
    SetTimer(("task", "fires"), DELAY_MS, kind="task"),
    SetTimer(("task", "cleared"), DELAY_MS, kind="task"),
    ClearTimer(("deadline", "cleared")),
    ClearTimer(("deadline", "cleared")),
    ClearTimer(("task", "cleared")),
]

#: Clearing a timer after it fired is a no-op: it counts nothing.
AFTER_FIRING = [ClearTimer(("deadline", "fires")), ClearTimer(("task", "fires"))]


def run_on_simulator(on_timer):
    simulation = Simulation()
    transport = Transport(simulation)
    runner = EffectRunner(transport, on_timer)
    runner.run(ARM)
    simulation.run_until_idle()
    runner.run(AFTER_FIRING)
    return transport.stats


def run_on_sockets(on_timer):
    async def scenario():
        endpoint = AsyncioEndpoint("A", {})
        runner = EffectRunner(endpoint, on_timer)
        runner.run(ARM)
        await asyncio.sleep(6 * DELAY_MS / 1000.0)
        runner.run(AFTER_FIRING)
        await endpoint.close()
        return endpoint.stats

    return asyncio.run(scenario())


@pytest.mark.parametrize("run", [run_on_simulator, run_on_sockets],
                         ids=["simulator", "asyncio"])
def test_the_runner_counts_deadlines_and_not_tasks(run):
    fired = []

    def on_timer(timer_id, now_ms):
        fired.append(timer_id)
        return []

    stats = run(on_timer)
    assert sorted(fired) == [("deadline", "fires"), ("task", "fires")]
    assert (stats.deadlines_set, stats.deadlines_fired,
            stats.deadlines_cancelled) == (2, 1, 1)


def test_the_transport_contract_is_four_methods_both_backends_implement():
    assert ProtocolTransport.__abstractmethods__ == {
        "send", "schedule", "cancel", "now_ms"}
    assert issubclass(Transport, ProtocolTransport)
    assert issubclass(AsyncioEndpoint, ProtocolTransport)
