"""``/healthz`` vs ``/readyz`` on the HTTP front end.

Liveness ("the process answers") and readiness ("the pool can serve")
are different questions; CI's wait-for-boot polls and any load balancer
need the second one.  ``/readyz`` must flip the status code (200/503)
on the ``ready`` flag, carry the same JSON body either way, and send
``Retry-After`` with every 503.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.service import HTTPServiceClient
from tests.service.conftest import serve


class TestReadiness:
    def test_healthz_is_liveness_only(self, served):
        client = HTTPServiceClient(served.url)
        assert client.healthz() == {"ok": True}

    def test_readyz_reports_the_worker_pool(self, served):
        payload = HTTPServiceClient(served.url).readyz()
        assert payload == {"ready": True, "mode": "process", "workers": 2,
                           "alive": 2}

    def test_readyz_answers_200_when_ready(self, served):
        with urllib.request.urlopen(served.url + "/readyz",
                                    timeout=10) as response:
            assert response.status == 200

    def test_in_process_client_agrees(self, served):
        assert served.client.readyz() == \
            HTTPServiceClient(served.url).readyz()

    def test_not_ready_is_a_503_with_retry_after(self, reference_db,
                                                 tmp_path):
        with serve(reference_db, tmp_path / "engine", workers=1) as running:
            running.client.stop()  # workers drained: answering, not ready
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(running.url + "/readyz", timeout=10)
            assert info.value.code == 503
            assert info.value.headers.get("Retry-After") == "1"
            # The body still carries the full readiness detail.
            payload = json.loads(info.value.read().decode("utf-8"))
            assert payload["ready"] is False
            # The client returns that payload instead of raising.
            assert HTTPServiceClient(running.url).readyz() == payload
