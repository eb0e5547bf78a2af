"""Simulation-as-a-service: session orchestration over the simulator.

The service layer turns :class:`~repro.simulation.AvmemSimulation` runs
into long-lived, addressable **sessions**:

* :class:`~repro.service.spec.SessionSpec` — everything needed to build
  (or rebuild) one session: settings, warm-up window, optional inline
  scenario;
* :class:`~repro.service.session.SimulationSession` — a running engine
  instance with its own telemetry recorder, serialized command
  execution, and an append-only command journal;
* :class:`~repro.service.store.SessionStore` — durable checkpoints
  (manifest + journal + per-plan logs + telemetry snapshot) built on the
  library's exact JSON round-trips;
* :class:`~repro.service.orchestrator.SessionOrchestrator` — the
  per-session-id registry: lazy create/restore behind a lock, concurrent
  execution across sessions, idle eviction to disk;
* :mod:`~repro.service.http` — the dependency-free JSON API served by
  ``repro serve``; :mod:`~repro.service.client` its urllib client.

Durability is **event-sourced**: the journal records every state-mutating
command (plan / advance / step) and restore replays it against a fresh
seeded build.  Because every random draw comes from named, independent
:class:`~repro.util.randomness.RandomRouter` streams, replay consumes
randomness exactly as the original run did — a restored session's
subsequent records are bit-identical to an uninterrupted one (asserted
in ``tests/test_service.py``).  That holds within one **stream epoch**
(:data:`repro.util.randomness.STREAM_EPOCH`): the manifest records the
epoch it was written under, and restore refuses any other.
"""

from repro.service.errors import (
    ServiceError,
    SessionBusyError,
    SessionExistsError,
    StreamEpochError,
    UnknownSessionError,
)
from repro.service.orchestrator import SessionOrchestrator
from repro.service.session import SimulationSession
from repro.service.spec import SessionSpec
from repro.service.store import SessionStore

__all__ = [
    "ServiceError",
    "SessionBusyError",
    "SessionExistsError",
    "StreamEpochError",
    "UnknownSessionError",
    "SessionOrchestrator",
    "SimulationSession",
    "SessionSpec",
    "SessionStore",
]
