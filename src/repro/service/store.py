"""Durable session checkpoints.

One checkpoint is a directory::

    <state_dir>/<session_id>/
        manifest.json        avmem-session-v1: spec, stream epoch, counts
        journal.json         the ordered command journal
        logs/plan-0000.json  one OperationLog per executed plan
        telemetry.json       TelemetrySnapshot at checkpoint time

The manifest + journal are the authoritative restore inputs (restore
replays the journal against a fresh seeded build); the per-plan logs
and telemetry snapshot are written for inspection and integrity
cross-checks without requiring a replay.  All files reuse the library's
exact JSON round-trips, and every write lands via rename so a crash
mid-checkpoint never leaves a truncated manifest behind.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from typing import Dict, List, Optional, Tuple

from repro.ops.log import OperationLog
from repro.service.errors import StreamEpochError, UnknownSessionError
from repro.service.spec import SessionSpec
from repro.util.randomness import STREAM_EPOCH

__all__ = ["SessionStore", "MANIFEST_FORMAT"]

MANIFEST_FORMAT = "avmem-session-v1"

#: ids double as directory names; keep them filesystem- and URL-safe
_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


def validate_session_id(session_id: str) -> str:
    if not isinstance(session_id, str) or not _ID_PATTERN.match(session_id):
        raise ValueError(
            "session id must be 1-128 characters of [A-Za-z0-9._-], "
            f"got {session_id!r}"
        )
    if session_id in (".", ".."):
        raise ValueError(f"session id {session_id!r} is reserved")
    return session_id


def _write_json(path: str, payload: object) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


class SessionStore:
    """Checkpoint directory manager (one subdirectory per session)."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def session_dir(self, session_id: str) -> str:
        return os.path.join(self.root, validate_session_id(session_id))

    def manifest_path(self, session_id: str) -> str:
        return os.path.join(self.session_dir(session_id), "manifest.json")

    def exists(self, session_id: str) -> bool:
        return os.path.exists(self.manifest_path(session_id))

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------
    def checkpoint(self, session) -> str:
        """Persist ``session`` (a :class:`SimulationSession`); returns
        the checkpoint directory.  Call with the session lock held so
        the journal cannot move under the write."""
        directory = self.session_dir(session.id)
        logs_dir = os.path.join(directory, "logs")
        os.makedirs(logs_dir, exist_ok=True)
        _write_json(
            os.path.join(directory, "journal.json"),
            {"format": MANIFEST_FORMAT, "entries": session.journal},
        )
        for k, log in enumerate(session.logs):
            path = os.path.join(logs_dir, f"plan-{k:04d}.json")
            if not os.path.exists(path):
                log.to_json(path)
        # Drop stale higher-numbered logs from an earlier life of this id.
        for name in os.listdir(logs_dir):
            match = re.match(r"^plan-(\d{4})\.json$", name)
            if match and int(match.group(1)) >= len(session.logs):
                os.remove(os.path.join(logs_dir, name))
        session.telemetry_snapshot().to_json(os.path.join(directory, "telemetry.json"))
        # The manifest lands last: its presence marks a complete checkpoint.
        _write_json(
            self.manifest_path(session.id),
            {
                "format": MANIFEST_FORMAT,
                "id": session.id,
                "spec": session.spec.as_dict(),
                "stream_epoch": STREAM_EPOCH,
                "created_at": session.created_at,
                "checkpointed_at": time.time(),
                "commands": len(session.journal),
                "plans": len(session.logs),
                "now": session.simulation.sim.now,
            },
        )
        return directory

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def load_manifest(self, session_id: str) -> Dict[str, object]:
        path = self.manifest_path(session_id)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise UnknownSessionError(session_id) from None
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"{path}: not a session manifest (format {manifest.get('format')!r})"
            )
        return manifest

    def load(self, session_id: str) -> Tuple[SessionSpec, List[dict], Dict[str, object]]:
        """The restore inputs: (spec, journal entries, manifest).

        Raises :class:`StreamEpochError` for a checkpoint written under
        a different (or no) stream epoch: the same seed builds another
        overlay now, so its journal must not be replayed."""
        manifest = self.load_manifest(session_id)
        if manifest.get("stream_epoch") != STREAM_EPOCH:
            raise StreamEpochError(session_id, manifest.get("stream_epoch"), STREAM_EPOCH)
        spec = SessionSpec.from_dict(manifest["spec"])
        journal_path = os.path.join(self.session_dir(session_id), "journal.json")
        try:
            with open(journal_path, "r", encoding="utf-8") as fh:
                journal = json.load(fh).get("entries", [])
        except FileNotFoundError:
            journal = []
        return spec, journal, manifest

    def load_log(self, session_id: str, plan_index: int) -> OperationLog:
        """A stored per-plan log (integrity checks, post-mortems)."""
        path = os.path.join(
            self.session_dir(session_id), "logs", f"plan-{plan_index:04d}.json"
        )
        if not os.path.exists(path):
            raise UnknownSessionError(session_id)
        return OperationLog.from_json(path)

    def list_ids(self) -> List[str]:
        """Checkpointed session ids (complete manifests only)."""
        out = []
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        for name in names:
            if _ID_PATTERN.match(name) and self.exists(name):
                out.append(name)
        return sorted(out)

    def describe(self, session_id: str) -> Dict[str, object]:
        """A list-row for a checkpointed (not currently live) session."""
        manifest = self.load_manifest(session_id)
        return {
            "id": session_id,
            "status": "checkpointed",
            "created_at": manifest.get("created_at"),
            "checkpointed_at": manifest.get("checkpointed_at"),
            "now": manifest.get("now"),
            "stream_epoch": manifest.get("stream_epoch"),
            "commands": manifest.get("commands"),
            "plans": manifest.get("plans"),
        }

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(self, session_id: str) -> bool:
        """Remove a checkpoint; True if one existed."""
        directory = self.session_dir(session_id)
        if not os.path.isdir(directory):
            return False
        shutil.rmtree(directory)
        return True
