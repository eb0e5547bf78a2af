"""HTTP API: routing, error mapping, concurrency, kill-and-restart.

The in-process tests run a ThreadingHTTPServer on an ephemeral port and
drive it through :class:`~repro.service.client.ServiceClient`.  The
subprocess test is the full durability story: a ``repro serve`` process
is killed mid-session and a fresh process restores the session from the
state directory; its remaining workload must aggregate identically to
an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.service.client import ServiceClient, ServiceClientError
from repro.service.http import make_server, scrub_json
from repro.service.orchestrator import SessionOrchestrator
from repro.service.store import SessionStore
from repro.util.randomness import STREAM_EPOCH

TINY_SETTINGS = {"hosts": 80, "epochs": 12, "seed": 3}
TINY = {"settings": TINY_SETTINGS, "warmup": 4000.0, "settle": 600.0}

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
    "name": "http-test",
}


@pytest.fixture()
def service(tmp_path):
    """(client, orchestrator) over a live in-process server."""
    store = SessionStore(str(tmp_path / "state"))
    orchestrator = SessionOrchestrator(store)
    server = make_server(orchestrator, port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(f"http://{host}:{port}"), orchestrator
    finally:
        server.shutdown()
        server.server_close()


class TestScrub:
    def test_nan_and_inf_to_null(self):
        payload = {"a": float("nan"), "b": [1.0, float("inf")], "c": {"d": 2.5}}
        assert scrub_json(payload) == {"a": None, "b": [1.0, None], "c": {"d": 2.5}}


class TestRoutes:
    def test_healthz(self, service):
        client, __ = service
        assert client.healthz()["ok"] is True

    def test_lifecycle(self, service):
        client, __ = service
        info = client.create_session(id="s1", **TINY)
        assert info["id"] == "s1"
        assert info["now"] == pytest.approx(4000.0)
        assert info["status"] == "live"

        result = client.run_plan("s1", PLAN)
        assert result["rows"] == 5
        assert result["plan_index"] == 0

        advanced = client.advance("s1", 60.0)
        assert advanced["now"] == pytest.approx(result["now"] + 60.0)

        stepped = client.step("s1", 5)
        assert stepped["events"] <= 5

        payload = client.log("s1", by=["kind", "band"])
        assert payload["plans"] == 1
        assert payload["summary"]["operations"] == 5
        assert all("success_rate" in g for g in payload["groups"])

        per_plan = client.log("s1", plan=0)
        assert per_plan["rows"] == 5

        snapshot = client.telemetry("s1")
        assert snapshot["format"] == "avmem-telemetry-v1"
        phases = client.telemetry("s1", phases=True)["phases"]
        assert any(row["phase"].startswith("sim.") for row in phases)

        assert client.evict("s1")["status"] == "checkpointed"
        rows = client.list_sessions()
        assert [(r["id"], r["status"]) for r in rows] == [("s1", "checkpointed")]

        # queries transparently restore
        assert client.log("s1")["rows"] == 5
        assert client.delete_session("s1")["status"] == "deleted"
        assert client.list_sessions() == []

    def test_generated_id(self, service):
        client, __ = service
        info = client.create_session(**TINY)
        assert len(info["id"]) == 12

    def test_unknown_session_404(self, service):
        client, __ = service
        for call in (
            lambda: client.session("ghost"),
            lambda: client.run_plan("ghost", PLAN),
            lambda: client.log("ghost"),
            lambda: client.delete_session("ghost"),
        ):
            with pytest.raises(ServiceClientError) as err:
                call()
            assert err.value.status == 404

    def test_bad_requests_400(self, service):
        client, __ = service
        with pytest.raises(ServiceClientError) as err:
            client.create_session(id="x", settings={"hosts": -3})
        assert err.value.status == 400
        with pytest.raises(ServiceClientError) as err:
            client.create_session(id="bad/id", **TINY)
        assert err.value.status == 400
        client.create_session(id="ok", **TINY)
        with pytest.raises(ServiceClientError) as err:
            client.run_plan("ok", {"items": "nope"})
        assert err.value.status == 400
        with pytest.raises(ServiceClientError) as err:
            client.advance("ok", -5.0)
        assert err.value.status == 400

    def test_duplicate_create_409(self, service):
        client, __ = service
        client.create_session(id="dup", **TINY)
        with pytest.raises(ServiceClientError) as err:
            client.create_session(id="dup", **TINY)
        assert err.value.status == 409

    def test_restore_of_another_stream_epoch_409(self, service):
        """Over HTTP the epoch guard is a 4xx naming both epochs, never
        a replay into a different overlay (and never a 500)."""
        client, orchestrator = service
        client.create_session(id="old", **TINY)
        client.run_plan("old", PLAN)
        client.evict("old")
        path = orchestrator.store.manifest_path("old")
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["stream_epoch"] = STREAM_EPOCH - 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        for call in (lambda: client.log("old"), lambda: client.run_plan("old", PLAN)):
            with pytest.raises(ServiceClientError) as err:
                call()
            assert err.value.status == 409
            assert f"stream epoch {STREAM_EPOCH - 1}" in err.value.message
            assert f"stream epoch {STREAM_EPOCH}" in err.value.message
        assert client.healthz()

    def test_restore_of_a_removed_settings_field_400(self, service):
        """A manifest carrying a settings field this code no longer has
        (``dispatch``, removed in PR 13) restores as a 4xx JSON error
        naming the field — never a 500, never a silent drop."""
        client, orchestrator = service
        client.create_session(id="old", **TINY)
        client.evict("old")
        path = orchestrator.store.manifest_path("old")
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["spec"]["settings"]["dispatch"] = "batch"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        for call in (lambda: client.log("old"), lambda: client.run_plan("old", PLAN)):
            with pytest.raises(ServiceClientError) as err:
                call()
            assert err.value.status == 400
            assert "unknown settings fields: ['dispatch']" in err.value.message
        with pytest.raises(ServiceClientError) as err:
            client.create_session(id="new", settings={"dispatch": "per-hop"})
        assert err.value.status == 400
        assert "unknown settings fields: ['dispatch']" in err.value.message
        assert client.healthz()

    def test_unknown_route_404(self, service):
        client, __ = service
        with pytest.raises(ServiceClientError) as err:
            client.request("GET", "/not-a-thing")
        assert err.value.status == 404

    def test_responses_strict_json(self, service):
        """Aggregations with undefined metrics must still be valid JSON
        (NaN scrubbed to null, which strict parsers accept)."""
        client, __ = service
        client.create_session(id="j", **TINY)
        base = client.base_url
        with urllib.request.urlopen(f"{base}/sessions/j/log") as response:
            parsed = json.loads(
                response.read().decode("utf-8"), parse_constant=lambda _: 1 / 0
            )
        assert parsed["rows"] == 0


class TestConcurrentClients:
    def test_sessions_isolated_under_concurrency(self, service):
        """Concurrent clients on same-seed sessions see records
        identical to a solo run — no cross-session RNG or state leaks."""
        client, __ = service
        ids = ["iso1", "iso2", "iso3"]
        for session_id in ids:
            client.create_session(id=session_id, **TINY)

        solo = ServiceClient(client.base_url)
        solo.create_session(id="solo", **TINY)
        solo_summary = solo.run_plan("solo", PLAN)["summary"]

        summaries = {}
        errors = []

        def drive(session_id):
            try:
                local = ServiceClient(client.base_url)
                local.run_plan(session_id, PLAN)
                local.advance(session_id, 60.0)
                summaries[session_id] = local.log(session_id, by=["kind"])
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((session_id, exc))

        threads = [
            threading.Thread(target=drive, args=(session_id,)) for session_id in ids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
        assert not errors
        reference = summaries[ids[0]]
        for session_id in ids[1:]:
            assert summaries[session_id] == reference
        assert reference["summary"] == solo_summary

    def test_commands_on_one_session_serialize(self, service):
        """Two clients hammering one session interleave safely: every
        command lands, and the journal holds all of them in order."""
        client, orchestrator = service
        client.create_session(id="shared", **TINY)
        errors = []

        def advance_many():
            try:
                local = ServiceClient(client.base_url)
                for __ in range(5):
                    local.advance("shared", 10.0)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=advance_many) for __ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not errors
        session = orchestrator.get("shared")
        assert len(session.journal) == 10
        assert session.simulation.sim.now == pytest.approx(4000.0 + 100.0)


def _wait_for_server(url: str, process, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"server exited early: {process.stdout.read()}"
            )
        try:
            with urllib.request.urlopen(f"{url}/healthz", timeout=1.0):
                return
        except OSError:
            time.sleep(0.1)
    raise AssertionError("server did not come up in time")


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.slow
class TestKillRestartDurability:
    def test_restore_across_processes(self, tmp_path):
        """Kill ``repro serve`` mid-session; a fresh process restores the
        session and finishes the workload with aggregations identical to
        an uninterrupted run."""
        state = str(tmp_path / "state")
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
        )

        def spawn():
            return subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--host", "127.0.0.1", "--port", str(port),
                    "--state-dir", state,
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )

        client = ServiceClient(url)
        first = spawn()
        try:
            _wait_for_server(url, first)
            client.create_session(id="durable", **TINY)
            client.run_plan("durable", PLAN)
            client.advance("durable", 120.0)
            client.checkpoint("durable")
        finally:
            first.send_signal(signal.SIGKILL)
            first.wait(10.0)

        second = spawn()
        try:
            _wait_for_server(url, second)
            rows = client.list_sessions()
            assert [(r["id"], r["status"]) for r in rows] == [
                ("durable", "checkpointed")
            ]
            follow = dict(PLAN)
            follow["name"] = "after-restart"
            restored_final = client.run_plan("durable", follow)
            restored_agg = client.log("durable", by=["kind"])
        finally:
            second.send_signal(signal.SIGTERM)
            try:
                second.wait(15.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                second.kill()
                second.wait(10.0)

        # Uninterrupted twin, in process (same spec and command order).
        from repro.ops.plan import OperationPlan
        from repro.service.session import SimulationSession
        from repro.service.spec import SessionSpec

        twin = SimulationSession.build("twin", SessionSpec.from_request(TINY))
        twin.run_plan(OperationPlan.from_dict(PLAN))
        twin.advance(120.0)
        twin_final = twin.run_plan(OperationPlan.from_dict(follow))

        assert restored_final["rows"] == len(twin_final)
        twin_agg = {
            "plans": len(twin.logs),
            "rows": len(twin.combined_log()),
            "summary": twin.combined_log().summary(),
            "groups": twin.combined_log().aggregate(by=("kind",)),
        }
        assert restored_agg == json.loads(
            json.dumps(scrub_json(twin_agg))
        )
