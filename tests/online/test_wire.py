"""Wire-level tests for CONTRIBUTE and ONLINE frames.

A real server on a real socket, backed by the same deterministic
coordinator the unit tests drive — the network layer adds envelope
codes and health surfacing, not new semantics.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.database import TrainingDatabase
from repro.net.client import AcicClient, RemoteError
from repro.net.server import AcicServer, ServerThread

from tests.online.test_coordinator import contribution_db


@pytest.fixture()
def running_online_server(make_online):
    """A live server wired to an online coordinator (worker not running:
    retrains are driven explicitly through the promote op)."""
    service, log, clock, coordinator = make_online()
    server = AcicServer(service, port=0, workers=2, online=coordinator)
    thread = ServerThread(server)
    host, port = thread.start()
    yield coordinator, service, host, port
    thread.stop()


@pytest.fixture()
def client(running_online_server):
    _coordinator, _service, host, port = running_online_server
    with AcicClient(host, port) as c:
        yield c


class TestContributeFrame:
    def test_contribution_lands_in_the_log(
        self, running_online_server, client, context, contribution_records
    ):
        coordinator, service, _host, _port = running_online_server
        reply = client.contribute(
            contribution_db(context.platform.name, contribution_records[:16])
        )
        assert reply["ops"] == "contribute"
        assert reply["platform"] == context.platform.name
        assert reply["accepted"] == 16
        assert reply["generation"] == 0
        assert reply["pending"] == 16
        assert coordinator.log.pending_count() == 16
        assert service.generation == 0  # nothing merged on the hot path

    def test_non_finite_measurement_is_a_bad_request(
        self, running_online_server, client, context, contribution_records
    ):
        coordinator, _service, _host, _port = running_online_server
        payload = contribution_db(
            context.platform.name, contribution_records[:2]
        ).to_payload()
        payload["records"][1]["perf_improvement"] = float("nan")  # JSON NaN
        with pytest.raises(RemoteError) as excinfo:
            client.contribute(SimpleNamespace(to_payload=lambda: payload))
        assert excinfo.value.code == "bad_request"
        assert coordinator.log.pending_count() == 0

    def test_unknown_platform_is_a_bad_request(self, client):
        database = TrainingDatabase("no-such-platform")
        with pytest.raises(RemoteError) as excinfo:
            client.contribute(database)
        assert excinfo.value.code == "bad_request"


class TestOnlineOps:
    def test_status_reflects_the_coordinator(
        self, running_online_server, client, context, contribution_records
    ):
        _coordinator, _service, _host, _port = running_online_server
        client.contribute(
            contribution_db(context.platform.name, contribution_records[:4])
        )
        status = client.online_status()
        assert status["ops"] == "online"
        assert status["op"] == "status"
        assert status["generation"] == 0
        assert status["pending"] == 4
        assert [g["id"] for g in status["lineage"]] == [0]

    def test_promote_then_rollback_round_trip(
        self, running_online_server, client, context, contribution_records
    ):
        _coordinator, service, _host, _port = running_online_server
        client.contribute(
            contribution_db(context.platform.name, contribution_records)
        )
        promoted = client.online_promote()
        assert promoted["outcome"] == "promoted"
        assert promoted["generation"] == 1
        assert service.generation == 1

        rolled = client.online_rollback()
        assert rolled["outcome"] == "rolled_back"
        assert rolled["generation"] == 0
        assert service.generation == 0

    def test_rollback_at_the_root_is_a_bad_request(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.online_rollback()
        assert excinfo.value.code == "bad_request"

    def test_unknown_op_is_a_bad_request(self, client):
        from repro.net.protocol import FrameKind

        request_id = client._send(FrameKind.ONLINE, {"op": "meddle"})
        with pytest.raises(RemoteError) as excinfo:
            client._recv_matching(request_id, expect=FrameKind.OPS_REPLY)
        assert excinfo.value.code == "bad_request"


class TestHealthSurfacing:
    def test_health_and_info_carry_the_online_section(
        self, running_online_server, client, context, contribution_records
    ):
        _coordinator, _service, _host, _port = running_online_server
        client.contribute(
            contribution_db(context.platform.name, contribution_records)
        )
        client.online_promote()

        health = client.ops_health()
        assert health["models"]["generation"] == 1
        assert health["online"]["generation"] == 1
        assert health["online"]["pending"] == 0
        assert health["online"]["last_outcome"] == "promoted"

        info = client.server_info()
        assert info["generation"] == 1
        assert info["online"] is True


class TestOfflineServer:
    @pytest.fixture()
    def offline_client(self, make_online):
        # Same service, but the server was not handed the coordinator:
        # the pre-online world, where contribute merges inline.
        service, _log, _clock, coordinator = make_online()
        coordinator.close()
        server = AcicServer(service, port=0, workers=2)
        thread = ServerThread(server)
        host, port = thread.start()
        with AcicClient(host, port) as c:
            yield c, service
        thread.stop()

    def test_online_ops_answer_a_structured_error(self, offline_client):
        client, _service = offline_client
        with pytest.raises(RemoteError) as excinfo:
            client.online_status()
        assert excinfo.value.code == "online_disabled"

    def test_contribute_still_merges_inline(
        self, offline_client, context, contribution_records
    ):
        client, service = offline_client
        before = service.stats().queries_served  # server is alive
        reply = client.contribute(
            contribution_db(context.platform.name, contribution_records[:8])
        )
        assert reply["accepted"] == 8
        assert "pending" not in reply
        assert before == service.stats().queries_served
