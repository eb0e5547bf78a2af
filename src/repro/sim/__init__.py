"""Discrete-event simulation substrate: engine, network, latency."""

from repro.sim.engine import PeriodicTask, ScheduledEvent, SimulationError, Simulator
from repro.sim.latency import (
    PAPER_HOP_LATENCY,
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
)
from repro.sim.network import (
    AlwaysOnline,
    DropReason,
    Envelope,
    Network,
    NetworkStats,
    PresenceOracle,
)

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "PeriodicTask",
    "SimulationError",
    "LatencyModel",
    "UniformLatency",
    "ConstantLatency",
    "LogNormalLatency",
    "PAPER_HOP_LATENCY",
    "Network",
    "NetworkStats",
    "Envelope",
    "DropReason",
    "PresenceOracle",
    "AlwaysOnline",
]
