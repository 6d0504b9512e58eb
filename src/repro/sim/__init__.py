"""Deterministic simulation substrate: virtual clock, counters, RNG, tasks."""

from repro.sim.clock import NSEC_PER_SEC, SimClock, microseconds, milliseconds, seconds
from repro.sim.histogram import LatencyHistogram
from repro.sim.rng import DeterministicRng
from repro.sim.stats import CounterSet, DeviceStats
from repro.sim.tasks import Task, TaskRunner, run_interleaved

__all__ = [
    "NSEC_PER_SEC",
    "SimClock",
    "microseconds",
    "milliseconds",
    "seconds",
    "LatencyHistogram",
    "DeterministicRng",
    "CounterSet",
    "DeviceStats",
    "Task",
    "TaskRunner",
    "run_interleaved",
]
