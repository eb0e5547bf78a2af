"""Service-layer exceptions, mapped onto HTTP statuses by the API."""

from __future__ import annotations

__all__ = [
    "ServiceError",
    "UnknownSessionError",
    "SessionExistsError",
    "SessionBusyError",
    "StreamEpochError",
]


class ServiceError(RuntimeError):
    """Base class for session-orchestration failures."""

    http_status = 500


class UnknownSessionError(ServiceError):
    """No live or checkpointed session under that id (HTTP 404)."""

    http_status = 404

    def __init__(self, session_id: str):
        super().__init__(f"unknown session {session_id!r}")
        self.session_id = session_id


class SessionExistsError(ServiceError):
    """Create collided with a live or checkpointed session (HTTP 409)."""

    http_status = 409

    def __init__(self, session_id: str):
        super().__init__(f"session {session_id!r} already exists")
        self.session_id = session_id


class SessionBusyError(ServiceError):
    """A non-blocking operation (evict, delete) found the session mid-
    command (HTTP 409); retry once the command finishes."""

    http_status = 409

    def __init__(self, session_id: str):
        super().__init__(f"session {session_id!r} is executing a command")
        self.session_id = session_id


class StreamEpochError(ServiceError):
    """A checkpoint was written under another stream epoch (HTTP 409).

    Its journal recorded commands against that epoch's overlay; replayed
    here it would build a different overlay from the same seed and
    silently diverge, so restore refuses.
    """

    http_status = 409

    def __init__(self, session_id: str, found: object, current: int):
        if found is None:
            written = "no stream epoch (written before epochs were recorded)"
        else:
            written = f"stream epoch {found!r}"
        super().__init__(
            f"session {session_id!r} was checkpointed under {written}; this "
            f"build runs stream epoch {current} and cannot replay its journal"
        )
        self.session_id = session_id
