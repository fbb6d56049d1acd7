"""The HTTP/JSON front end: round trips, error mapping, stats, the CLI."""

import asyncio
import json
import random
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import BloomDB, EngineConfig
from repro.service import HTTPServiceClient
from repro.service.aserver import _BadRequest, _read_request
from repro.service.client import HTTPError


@pytest.fixture(scope="module")
def client(served):
    return HTTPServiceClient(served.url)


def raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes on a fresh connection; return all bytes read."""
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestRoundTrips:
    def test_healthz(self, client):
        assert client.healthz() == {"ok": True}

    def test_sample_matches_in_process_client(self, served, client,
                                              workload):
        name = workload[0][0]
        over_http = client.sample(name, r=6, seed=41)
        in_process = served.client.sample(name, r=6, seed=41)
        assert over_http == in_process
        assert len(over_http["values"]) == 6

    def test_reconstruct_returns_elements_and_ops(self, client, workload):
        name, ids = workload[1]
        # Exhaustive mode guarantees recall (estimator-guided pruning may
        # miss elements below the noise floor).
        response = client.reconstruct(name, exhaustive=True)
        assert set(ids.tolist()) <= set(response["elements"])
        assert response["ops"]["memberships"] > 0

    def test_contains(self, client, workload):
        name, ids = workload[2]
        assert client.contains(name, int(ids[0]))["contains"] is True

    def test_union_and_intersection(self, client, workload):
        names = [workload[0][0], workload[1][0]]
        union = client.sample_union(names, seed=9)
        assert union["value"] is not None
        sketch = client.sample_intersection(names, seed=9)
        assert "value" in sketch

    def test_add_set_then_query(self, client):
        ids = list(range(0, 900, 9))
        assert client.add_set("added-via-http", ids)["ok"] is True
        got = client.sample("added-via-http", r=4, seed=2)
        assert all(v % 9 == 0 for v in got["values"])

    def test_stats_nonempty(self, client):
        client.sample("set0", r=2, seed=1)
        stats = client.stats()
        assert stats["counters"]["served_total"] > 0
        assert stats["pool"]["workers"] == 2
        assert stats["policy"]["max_batch"] > 0
        assert "batch_size" in stats["histograms"]


class TestErrorMapping:
    def test_unknown_set_is_404(self, client):
        with pytest.raises(HTTPError) as info:
            client.sample("missing-set")
        assert info.value.status == 404

    def test_unknown_route_is_400(self, client):
        with pytest.raises(HTTPError) as info:
            client._request("POST", "/no-such-route", {})
        assert info.value.status == 400

    def test_missing_field_is_400(self, client):
        with pytest.raises(HTTPError) as info:
            client._request("POST", "/sample", {"r": 3})
        assert info.value.status == 400
        assert "set" in str(info.value)

    def test_non_positive_rounds_is_400(self, client, workload):
        with pytest.raises(HTTPError) as info:
            client._request("POST", "/sample",
                            {"set": workload[0][0], "r": 0})
        assert info.value.status == 400
        assert "rounds must be positive" in str(info.value)

    def test_rounds_above_the_cap_are_400_and_reach_no_worker(
            self, served, client, workload):
        from repro.service.procpool import MAX_ROUNDS

        pool = served.client.pool
        accepted = pool.metrics.export()["counters"].get("requests_total")
        with pytest.raises(HTTPError) as info:
            client._request("POST", "/sample",
                            {"set": workload[0][0], "r": MAX_ROUNDS + 1})
        assert info.value.status == 400
        assert f"at most {MAX_ROUNDS}" in str(info.value)
        assert pool.metrics.export()["counters"].get("requests_total") \
            == accepted

    def test_malformed_json_is_400(self, served):
        request = urllib.request.Request(
            served.url + "/sample", data=b"{nope", method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    def test_negative_content_length_is_400_and_closes(self, served):
        response = raw_exchange(
            served, b"POST /sample HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: -5\r\n\r\n")
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": "invalid Content-Length"}
        # The server is still healthy for the next connection.
        assert HTTPServiceClient(served.url).healthz() == {"ok": True}

    def test_deeply_nested_json_is_400_and_closes(self, served):
        """Nesting past the parser's recursion limit, far under the size
        cap, is malformed JSON — not a dead connection task."""
        body = b'{"set": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        response = raw_exchange(
            served, b"POST /sample HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: " + str(len(body)).encode()
                    + b"\r\n\r\n" + body)
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert json.loads(payload) == {
            "error": "request body is not valid JSON"}
        assert HTTPServiceClient(served.url).healthz() == {"ok": True}

    def test_out_of_range_ids_are_400(self, client, workload):
        for path, body in (("/contains", {"set": workload[0][0], "x": -1}),
                           ("/insert", {"ids": [-1]}),
                           ("/insert", {"ids": [2**64]}),
                           ("/add-set", {"set": "neg", "ids": [-1]})):
            with pytest.raises(HTTPError) as info:
                client._request("POST", path, body)
            assert info.value.status == 400, (path, info.value)

    def test_duplicate_add_set_is_409(self, client, workload):
        with pytest.raises(HTTPError) as info:
            client.add_set(workload[0][0], [1, 2, 3])
        assert info.value.status == 409
        assert "already exists" in str(info.value)

    def test_checkpoint_on_volatile_pool_is_409(self, client):
        with pytest.raises(HTTPError) as info:
            client.checkpoint()
        assert info.value.status == 409
        assert "durable" in str(info.value)

    def test_get_unknown_route_is_404(self, client):
        with pytest.raises(HTTPError) as info:
            client._request("GET", "/nope")
        assert info.value.status == 404


class TestServerLifecycle:
    def test_port_zero_resolves(self, served):
        assert served.port > 0
        assert served.url.startswith("http://127.0.0.1:")

    def test_smoke_cli_mode_on_a_saved_engine(self, tmp_path, capsys):
        """The smoke probes ids from the served engine's own namespace,
        not the ``--namespace`` default."""
        from repro.__main__ import main

        db = BloomDB(EngineConfig(namespace_size=6_000, accuracy=0.9,
                                  set_size=80, seed=3))
        rng = np.random.default_rng(3)
        for i in range(3):
            db.add_set(f"s{i}", rng.choice(6_000, 80, replace=False))
        db.save(tmp_path / "engine")
        rc = main(["serve", "--workers", "1", "--smoke", "--requests", "40",
                   "--db", str(tmp_path / "engine")])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "smoke: OK (3 sets verified bit-identical" in out

    def test_smoke_cli_mode(self, capsys):
        """Retire, compact and the mixed load on an ephemeral engine."""
        from repro.__main__ import main

        rc = main(["serve", "--smoke", "--requests", "60",
                   "--namespace", "6000", "--set-size", "80",
                   "--num-sets", "4", "--tree", "dynamic"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "smoke: OK" in out


def test_in_process_client_encodes_sample_result(served, workload):
    name, ids = workload[0]
    response = served.client.sample(name, r=3, seed=8)
    assert sorted(response) == ["ops", "requested", "shortfall", "values"]
    assert response["requested"] == 3
    assert all(isinstance(v, int) for v in response["values"])
    assert set(response["values"]) <= set(np.asarray(ids).tolist())


class TestOccupancyWriteEndpoints:
    """The serve write surface: /insert, /retire, /compact."""

    def test_insert_then_retire_roundtrip(self, dynamic_served):
        http = HTTPServiceClient(dynamic_served.url)
        leader = dynamic_served.client.pool.leader
        before = leader.occupied.size
        fresh = [int(v) for v in np.setdiff1d(
            np.arange(7_000, 7_100, dtype=np.uint64), leader.occupied)[:4]]
        assert http.insert_ids(fresh) == {"ok": True, "inserted": 4}
        assert leader.occupied.size == before + 4
        assert http.retire_ids(fresh) == {"ok": True, "retired": 4}
        assert leader.occupied.size == before

    def test_compact_is_bit_invisible_over_http(self, dynamic_served):
        http = HTTPServiceClient(dynamic_served.url)
        http.insert_ids([7100, 7101, 7102])
        before = http.sample("alpha", r=6, seed=3)
        response = http.compact()
        assert response["ok"] is True
        assert http.sample("alpha", r=6, seed=3) == before

    def test_retire_on_static_tree_is_400(self, client):
        with pytest.raises(HTTPError) as excinfo:
            client.retire_ids([1, 2, 3])
        assert excinfo.value.status == 400

    def test_insert_on_static_tree_is_a_noop_ok(self, client):
        assert client.insert_ids([1, 2, 3])["ok"] is True

    def test_rejected_add_set_changes_nothing(self, dynamic_served):
        """An id outside the namespace is a 400 that stores nothing: the
        same name then adds cleanly and every worker serves it."""
        from tests.service.conftest import probe_via, reference

        http = HTTPServiceClient(dynamic_served.url)
        pool = dynamic_served.client.pool
        with pytest.raises(HTTPError) as info:
            http.add_set("rejected", [5, 10**6])
        assert info.value.status == 400
        assert "rejected" not in pool.leader.names()
        assert http.add_set("rejected", [5, 105, 205])["ok"] is True
        want = reference(pool, "rejected", seed=21)
        for worker in range(pool.num_workers):
            assert probe_via(pool, worker, "rejected", seed=21) == want

    def test_insert_requires_ids_list(self, client):
        with pytest.raises(HTTPError) as excinfo:
            client._request("POST", "/insert", {"ids": "nope"})
        assert excinfo.value.status == 400


def _fuzz_request(rng: random.Random) -> bytes:
    """One random request: noise, or a plausible head over a random body."""
    if rng.random() < 0.2:
        return bytes(rng.getrandbits(8) for _ in range(rng.randrange(200)))
    pieces = [b"{", b"}", b"[", b"]", b'"set"', b":", b",", b"1", b"-7",
              b"1e999", b"null", b"\xff", b"\x00", b'"\\u', b" "]
    body = b"".join(rng.choice(pieces) for _ in range(rng.randrange(40)))
    if rng.random() < 0.1:
        depth = rng.randrange(1, 5_000)
        body = b"[" * depth + b"]" * depth
    length = rng.choice([str(len(body)).encode(), b"-1", b"abc", b"",
                         str(rng.randrange(10**9)).encode(),
                         str(max(0, len(body) - 3)).encode()])
    line = rng.choice([b"POST /sample HTTP/1.1", b"GET /readyz HTTP/1.1",
                       b"POST /x", b"", b"\xff\xfe \x00 HTTP/9"])
    head = line + b"\r\nHost: x\r\nContent-Length: " + length
    return head + b"\r\n\r\n" + body


def test_read_request_fuzz_returns_request_none_or_bad_request():
    """Seeded fuzz of the request reader over random heads and bodies:
    a parsed request, ``None`` (connection closed) or
    :class:`_BadRequest` (a 400) — never any other exception."""
    rng = random.Random(20261019)

    async def parse(data: bytes):
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await _read_request(reader)

    async def fuzz():
        seen = {"request": 0, "none": 0, "bad": 0}
        for _ in range(1_500):
            try:
                request = await parse(_fuzz_request(rng))
            except _BadRequest:
                seen["bad"] += 1
                continue
            if request is None:
                seen["none"] += 1
            else:
                method, path, body = request
                assert isinstance(body, dict)
                seen["request"] += 1
        return seen

    seen = asyncio.run(fuzz())
    assert all(seen.values()), seen
