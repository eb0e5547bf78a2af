"""Service core: spec, session, store, orchestrator, durability.

The headline assertion is the kill-and-restore durability property: a
session checkpointed mid-workload and restored in a *fresh* build runs
its remaining commands to bit-identical OperationLog records vs an
uninterrupted seeded twin — the event-sourced journal replay consumes
every RNG stream exactly as the original run did.
"""

import json
import os
import threading

import numpy as np
import pytest

from repro.ops.log import OperationLog
from repro.ops.plan import OperationPlan
from repro.service import (
    SessionBusyError,
    SessionExistsError,
    SessionOrchestrator,
    SessionSpec,
    SessionStore,
    SimulationSession,
    StreamEpochError,
    UnknownSessionError,
)
from repro.service.store import validate_session_id
from repro.util.randomness import STREAM_EPOCH

# Tiny but non-trivial: enough hosts/epochs for churn and deliveries,
# small enough that a session builds in well under a second.
TINY = {
    "settings": {"hosts": 80, "epochs": 12, "seed": 3},
    "warmup": 4000.0,
    "settle": 600.0,
}

PLAN = {
    "items": [
        {
            "kind": "anycast",
            "target": {"kind": "range", "lo": 0.5, "hi": 1.0},
            "count": 4,
            "band": "mid",
            "timing": {"mode": "interval", "spacing": 2.0},
        },
        {
            "kind": "multicast",
            "target": {"kind": "range", "lo": 0.5, "hi": 1.0},
            "count": 1,
            "band": "high",
            "timing": {"mode": "interval", "spacing": 5.0, "phase": 11.0},
        },
    ],
    "settle": 20.0,
    "name": "service-test",
}


def tiny_spec(**overrides) -> SessionSpec:
    payload = {**TINY, **overrides}
    return SessionSpec.from_request(payload)


def make_plan(name="service-test") -> OperationPlan:
    payload = dict(PLAN)
    payload["name"] = name
    return OperationPlan.from_dict(payload)


def assert_logs_identical(a: OperationLog, b: OperationLog) -> None:
    assert set(a.columns) == set(b.columns)
    for column in a.columns:
        np.testing.assert_array_equal(
            a.columns[column], b.columns[column], err_msg=column
        )


@pytest.fixture(scope="module")
def built_session():
    """One warmed-up session shared by read-only tests."""
    return SimulationSession.build("shared", tiny_spec())


class TestSessionSpec:
    def test_round_trip(self):
        spec = tiny_spec()
        again = SessionSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert again == spec

    def test_scale_defaults(self):
        spec = SessionSpec.from_request({"scale": "small"})
        assert spec.settings.hosts == 220
        assert spec.warmup == 24600.0
        assert spec.settle == 2400.0

    def test_settings_override_scale(self):
        spec = SessionSpec.from_request({"scale": "small", "settings": {"hosts": 99}})
        assert spec.settings.hosts == 99

    def test_inline_scenario_round_trips(self):
        from repro.scenarios.registry import get_scenario

        inline = get_scenario("stable-core").as_dict()
        spec = tiny_spec(scenario=inline)
        assert spec.scenario is not None
        again = SessionSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert again.scenario == spec.scenario

    def test_registered_scenario_name(self):
        spec = tiny_spec(scenario="stable-core")
        assert spec.scenario is None
        assert spec.settings.scenario == "stable-core"

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown session fields"):
            SessionSpec.from_request({"bogus": 1})

    def test_rejects_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            SessionSpec.from_request({"scale": "galactic"})

    def test_rejects_bad_settings_field(self):
        with pytest.raises(ValueError, match=r"unknown settings fields: \['warp'\]"):
            SessionSpec.from_request({"settings": {"warp": 9}})

    def test_validates_warmup_window(self):
        with pytest.raises(ValueError, match="settle"):
            tiny_spec(warmup=100.0, settle=200.0)


class TestSessionIds:
    @pytest.mark.parametrize("good", ["a", "run-7", "user.session_1", "A" * 128])
    def test_accepts(self, good):
        assert validate_session_id(good) == good

    @pytest.mark.parametrize(
        "bad", ["", "a/b", "../x", "a b", "x" * 129, "ütf", None, 7]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            validate_session_id(bad)


class TestSimulationSession:
    def test_commands_journal_and_log(self):
        session = SimulationSession.build("s", tiny_spec())
        log = session.run_plan(make_plan())
        assert len(log) == 5
        before = session.simulation.sim.now
        result = session.advance(100.0)
        assert result["now"] == pytest.approx(before + 100.0)
        stepped = session.step(10)
        assert stepped["events"] <= 10
        assert [e["kind"] for e in session.journal] == ["plan", "advance", "step"]

    def test_combined_log_concatenates(self):
        session = SimulationSession.build("s", tiny_spec())
        first = session.run_plan(make_plan("one"))
        second = session.run_plan(make_plan("two"))
        combined = session.combined_log()
        assert len(combined) == len(first) + len(second)
        assert_logs_identical(
            combined, OperationLog.concat([first, second])
        )

    def test_aggregations_shape(self, built_session):
        payload = built_session.aggregations(by=["kind"])
        assert payload["plans"] == len(built_session.logs)
        assert "summary" in payload
        if payload["rows"]:
            assert {g["kind"] for g in payload["groups"]} <= {"anycast", "multicast"}

    def test_advance_rejects_past_horizon(self, built_session):
        with pytest.raises(ValueError, match="horizon"):
            built_session._advance(1e12, record=False)

    def test_private_recorder_not_global(self):
        from repro.telemetry import TELEMETRY

        session = SimulationSession.build("s", tiny_spec())
        assert session.telemetry is not TELEMETRY
        assert session.telemetry.enabled
        assert session.simulation.telemetry is session.telemetry
        snapshot = session.telemetry_snapshot()
        assert snapshot.find_span("sim.setup") is not None

    def test_telemetry_disabled_when_requested(self):
        session = SimulationSession.build("s", tiny_spec(telemetry=False))
        assert not session.telemetry.enabled


class TestDurability:
    def test_restore_is_bit_identical(self, tmp_path):
        """The acceptance criterion: snapshot mid-workload, restore in a
        fresh build, run to completion — identical records and
        aggregations vs the uninterrupted twin."""
        spec = tiny_spec()
        store = SessionStore(str(tmp_path / "state"))

        # Interrupted life: plan, advance, checkpoint ... restore, plan.
        original = SimulationSession.build("x", spec)
        original.run_plan(make_plan("first"))
        original.advance(150.0)
        store.checkpoint(original)
        loaded_spec, journal, manifest = store.load("x")
        assert manifest["commands"] == 2
        restored = SimulationSession.build("x", loaded_spec, journal=journal)
        assert restored.simulation.sim.now == original.simulation.sim.now
        assert_logs_identical(restored.logs[0], original.logs[0])

        # Uninterrupted twin runs the same command sequence end to end.
        twin = SimulationSession.build("x", spec)
        twin.run_plan(make_plan("first"))
        twin.advance(150.0)

        final_restored = restored.run_plan(make_plan("second"))
        final_twin = twin.run_plan(make_plan("second"))
        assert_logs_identical(final_restored, final_twin)
        assert_logs_identical(restored.combined_log(), twin.combined_log())
        assert (
            restored.combined_log().summary() == twin.combined_log().summary()
        )

    def test_stored_logs_match_replayed(self, tmp_path):
        store = SessionStore(str(tmp_path))
        session = SimulationSession.build("x", tiny_spec())
        session.run_plan(make_plan())
        store.checkpoint(session)
        stored = store.load_log("x", 0)
        assert_logs_identical(stored, session.logs[0])

    def test_checkpoint_files(self, tmp_path):
        store = SessionStore(str(tmp_path))
        session = SimulationSession.build("x", tiny_spec())
        session.run_plan(make_plan())
        directory = store.checkpoint(session)
        names = sorted(os.listdir(directory))
        assert names == ["journal.json", "logs", "manifest.json", "telemetry.json"]
        manifest = store.load_manifest("x")
        assert manifest["format"] == "avmem-session-v1"
        assert manifest["plans"] == 1
        assert manifest["stream_epoch"] == STREAM_EPOCH

    @pytest.mark.parametrize("written", [STREAM_EPOCH - 1, None])
    def test_restore_refuses_another_stream_epoch(self, tmp_path, written):
        """A journal recorded against another epoch's overlay (or a
        manifest from before epochs were recorded) is never replayed."""
        store = SessionStore(str(tmp_path))
        session = SimulationSession.build("x", tiny_spec())
        session.run_plan(make_plan())
        store.checkpoint(session)
        path = store.manifest_path("x")
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if written is None:
            del manifest["stream_epoch"]
        else:
            manifest["stream_epoch"] = written
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(StreamEpochError) as err:
            store.load("x")
        message = str(err.value)
        assert f"stream epoch {STREAM_EPOCH}" in message
        assert ("no stream epoch" if written is None else f"stream epoch {written}") in message
        # The checkpoint stays listable and deletable.
        assert store.describe("x")["stream_epoch"] == written
        assert store.delete("x")

    def test_restore_names_a_removed_settings_field(self, tmp_path):
        """A manifest written before a settings field was removed
        (``dispatch``, PR 13) fails restore with the field's name — not a
        bare TypeError from the dataclass constructor, and never by
        silently dropping the key."""
        store = SessionStore(str(tmp_path))
        store.checkpoint(SimulationSession.build("x", tiny_spec()))
        path = store.manifest_path("x")
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["spec"]["settings"]["dispatch"] = "batch"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match=r"unknown settings fields: \['dispatch'\]"):
            store.load("x")


class TestSessionStore:
    def test_unknown_session(self, tmp_path):
        store = SessionStore(str(tmp_path))
        with pytest.raises(UnknownSessionError):
            store.load("nope")

    def test_delete(self, tmp_path):
        store = SessionStore(str(tmp_path))
        session = SimulationSession.build("x", tiny_spec())
        store.checkpoint(session)
        assert store.list_ids() == ["x"]
        assert store.delete("x")
        assert store.list_ids() == []
        assert not store.delete("x")

    def test_describe(self, tmp_path):
        store = SessionStore(str(tmp_path))
        session = SimulationSession.build("x", tiny_spec())
        session.run_plan(make_plan())
        store.checkpoint(session)
        row = store.describe("x")
        assert row["status"] == "checkpointed"
        assert row["commands"] == 1
        assert row["plans"] == 1


class TestOrchestrator:
    def test_create_get_evict_restore(self, tmp_path):
        orch = SessionOrchestrator(SessionStore(str(tmp_path)))
        spec = tiny_spec()
        created = orch.create("a", spec)
        assert orch.get("a") is created
        orch.run_command("a", lambda s: s.run_plan(make_plan()))
        orch.evict("a")
        assert created.evicted
        rows = orch.list_sessions()
        assert [(r["id"], r["status"]) for r in rows] == [("a", "checkpointed")]
        # run_command transparently restores
        rows_after = orch.run_command("a", lambda s: s.aggregations())
        assert rows_after["plans"] == 1
        assert orch.get("a") is not created

    def test_duplicate_create_rejected(self, tmp_path):
        orch = SessionOrchestrator(SessionStore(str(tmp_path)))
        orch.create("a", tiny_spec())
        with pytest.raises(SessionExistsError):
            orch.create("a", tiny_spec())
        orch.evict("a")
        # still taken by the checkpoint
        with pytest.raises(SessionExistsError):
            orch.create("a", tiny_spec())

    def test_unknown_session(self, tmp_path):
        orch = SessionOrchestrator(SessionStore(str(tmp_path)))
        with pytest.raises(UnknownSessionError):
            orch.get("missing")
        with pytest.raises(UnknownSessionError):
            orch.evict("missing")
        with pytest.raises(UnknownSessionError):
            orch.delete("missing")

    def test_evict_busy_raises(self, tmp_path):
        orch = SessionOrchestrator(SessionStore(str(tmp_path)))
        session = orch.create("a", tiny_spec())
        entered = threading.Event()
        release = threading.Event()

        def hold(s):
            entered.set()
            release.wait(5.0)
            return None

        worker = threading.Thread(
            target=lambda: orch.run_command("a", hold), daemon=True
        )
        worker.start()
        assert entered.wait(5.0)
        with pytest.raises(SessionBusyError):
            orch.evict("a")
        release.set()
        worker.join(5.0)
        orch.evict("a")  # now idle: succeeds
        assert session.evicted

    def test_command_queued_across_evict_lands_on_restored(self, tmp_path):
        """A command that was waiting while the eviction won the lock
        must re-fetch (restore) instead of mutating the zombie."""
        orch = SessionOrchestrator(SessionStore(str(tmp_path)))
        orch.create("a", tiny_spec())
        orch.run_command("a", lambda s: s.run_plan(make_plan()))
        first = orch.get("a")
        results = []
        started = threading.Event()

        def late_command():
            started.set()
            results.append(orch.run_command("a", lambda s: (s, s.aggregations())))

        # Evict first, then issue the command: it must restore.
        orch.evict("a")
        worker = threading.Thread(target=late_command, daemon=True)
        worker.start()
        assert started.wait(5.0)
        worker.join(10.0)
        session, payload = results[0]
        assert session is not first
        assert payload["plans"] == 1

    def test_concurrent_commands_isolated_sessions(self, tmp_path):
        """Same-seed sessions driven concurrently produce the same
        records a solo run does — no RNG cross-talk between sessions."""
        spec = tiny_spec()
        solo = SimulationSession.build("solo", spec)
        solo_log = solo.run_plan(make_plan())

        orch = SessionOrchestrator(SessionStore(str(tmp_path)))
        ids = ["c1", "c2", "c3"]
        for session_id in ids:
            orch.create(session_id, spec)
        logs = {}
        errors = []

        def drive(session_id):
            try:
                logs[session_id] = orch.run_command(
                    session_id, lambda s: s.run_plan(make_plan())
                )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((session_id, exc))

        threads = [
            threading.Thread(target=drive, args=(session_id,)) for session_id in ids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not errors
        for session_id in ids:
            assert_logs_identical(logs[session_id], solo_log)

    def test_checkpoint_all_and_sweep(self, tmp_path):
        orch = SessionOrchestrator(SessionStore(str(tmp_path)), idle_timeout=0.0)
        orch.create("a", tiny_spec())
        orch.create("b", tiny_spec())
        assert sorted(orch.checkpoint_all()) == ["a", "b"]
        # both still live after checkpoint
        assert {r["status"] for r in orch.list_sessions()} == {"live"}
        evicted = orch.sweep_idle()
        assert sorted(evicted) == ["a", "b"]
        assert {r["status"] for r in orch.list_sessions()} == {"checkpointed"}

    def test_delete_live_and_stored(self, tmp_path):
        orch = SessionOrchestrator(SessionStore(str(tmp_path)))
        orch.create("a", tiny_spec())
        orch.delete("a")
        with pytest.raises(UnknownSessionError):
            orch.get("a")


class TestOperationLogConcat:
    def test_empty(self):
        assert len(OperationLog.concat([])) == 0

    def test_single_passthrough(self, built_session):
        log = (
            built_session.logs[0]
            if built_session.logs
            else OperationLog.builder().finalize()
        )
        assert OperationLog.concat([log]) is log

    def test_summary_over_concat(self):
        session = SimulationSession.build("s", tiny_spec())
        a = session.run_plan(make_plan("a"))
        b = session.run_plan(make_plan("b"))
        combined = OperationLog.concat([a, b])
        assert combined.summary()["operations"] == len(a) + len(b)
        assert (
            combined.summary()["launched"]
            == a.summary()["launched"] + b.summary()["launched"]
        )
