"""Workloads: the Figure 1 trace, named scenarios, synthetic generators, drivers."""

from .clients import ClosedLoopClient, ClosedLoopConfig, run_closed_loop_workload
from .generator import WorkloadConfig, WorkloadGenerator, generate_workload
from .scenarios import (
    CHURN_SCENARIOS,
    ChurnReport,
    Figure1Result,
    Figure1Step,
    ScenarioSpec,
    concurrent_writers_trace,
    figure1_trace,
    interleaved_two_server_trace,
    named_scenarios,
    read_modify_write_chain_trace,
    replay_scenario,
    run_churn_scenario,
    run_figure1,
    run_figure1_by_name,
    session_reset_trace,
)
from .traces import Operation, OpType, ReplayResult, Trace, replay_trace

__all__ = [
    "CHURN_SCENARIOS",
    "ChurnReport",
    "ClosedLoopClient",
    "ClosedLoopConfig",
    "Figure1Result",
    "Figure1Step",
    "Operation",
    "OpType",
    "ReplayResult",
    "ScenarioSpec",
    "Trace",
    "WorkloadConfig",
    "WorkloadGenerator",
    "concurrent_writers_trace",
    "figure1_trace",
    "generate_workload",
    "interleaved_two_server_trace",
    "named_scenarios",
    "read_modify_write_chain_trace",
    "replay_scenario",
    "replay_trace",
    "run_churn_scenario",
    "run_closed_loop_workload",
    "run_figure1",
    "run_figure1_by_name",
    "session_reset_trace",
]
