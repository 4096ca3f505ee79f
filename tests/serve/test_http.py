"""The HTTP surface, end to end over a real socket.

Each test boots a :class:`JobServer` on an ephemeral port inside its
own event loop, drives it with a raw stdlib client (the same framing a
curl user sees), and shuts it down.
"""

import asyncio
import contextlib
import json
import threading

import pytest

import repro.serve.jobs as jobs_mod
from repro.serve.app import JobServer, ServerConfig
from repro.serve.events import parse_sse

TINY = {
    "protocol": "grid", "n_hosts": 8, "width_m": 300.0, "height_m": 300.0,
    "n_flows": 2, "sim_time_s": 20.0, "initial_energy_j": 50.0, "seed": 6,
}


# ----------------------------------------------------------------------
# Minimal HTTP client (what the server's framing must satisfy)
# ----------------------------------------------------------------------
async def request(port, method, path, body=None, headers=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = f"{method} {path} HTTP/1.1\r\nhost: t\r\n"
    for key, value in (headers or {}).items():
        head += f"{key}: {value}\r\n"
    head += f"content-length: {len(payload)}\r\n\r\n"
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(body) if body else None


async def stream_events(port, job_id):
    """Collect the job's whole SSE stream (closes at the end frame)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\nhost: t\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"200" in head.split(b"\r\n")[0]
    assert b"text/event-stream" in head
    return parse_sse(body.decode("utf-8"))


@contextlib.asynccontextmanager
async def running_server(**overrides):
    config = ServerConfig(port=0, no_cache=True)
    for name, value in overrides.items():
        setattr(config, name, value)
    server = JobServer(config)
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


@contextlib.contextmanager
def gated_api_run(monkeypatch):
    """Pin the simulation behind a gate so 'running' is not a race."""
    started = threading.Event()
    release = threading.Event()

    def gated(config, cache=None, tracer=None):
        started.set()
        release.wait(60.0)
        return None

    monkeypatch.setattr(jobs_mod, "api_run", gated)
    try:
        yield started, release
    finally:
        release.set()


# ----------------------------------------------------------------------
# Routes
# ----------------------------------------------------------------------
def test_healthz():
    async def scenario():
        async with running_server() as server:
            status, body = await request(server.port, "GET", "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["api_version"] == 1
            assert body["jobs"]["total"] == 0

    asyncio.run(scenario())


def test_run_job_full_lifecycle_over_http():
    async def scenario():
        async with running_server() as server:
            status, view = await request(
                server.port, "POST", "/v1/jobs",
                {"kind": "run", "payload": TINY, "api_version": 1},
            )
            assert status == 201
            job_id = view["job_id"]

            frames = await stream_events(server.port, job_id)
            kinds = [f[0] for f in frames]
            assert kinds[-1] == "end"
            assert "state" in kinds
            # SSE ids are the job stream's sequence numbers: increasing from 1
            ids = [f[2] for f in frames]
            assert ids == sorted(ids) and ids[0] == 1

            status, view = await request(
                server.port, "GET", f"/v1/jobs/{job_id}"
            )
            assert status == 200
            assert view["state"] == "done"

            status, record = await request(
                server.port, "GET", f"/v1/jobs/{job_id}/result"
            )
            assert status == 200
            assert record["schema"] == 3
            assert record["kind"] == "result"
            assert record["config"]["n_hosts"] == 8

            # the HTTP record is the same schema the file exporters emit
            from repro.api import load_result

            result = load_result(record)
            assert result.config.n_hosts == 8

    asyncio.run(scenario())


def test_subscriber_attached_while_the_job_runs_gets_live_frames(monkeypatch):
    # The stream opens while the job is held running, so the frames
    # published after the gate opens reach it live, not by replay.
    async def scenario():
        with gated_api_run(monkeypatch) as (started, release):
            async with running_server() as server:
                port = server.port
                _, view = await request(
                    port, "POST", "/v1/jobs", {"kind": "run", "payload": TINY}
                )
                job_id = view["job_id"]
                assert started.wait(30.0)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                    f"host: t\r\n\r\n".encode()
                )
                await writer.drain()
                # The replayed "running" frame shows the stream is open.
                backlog = await asyncio.wait_for(
                    reader.readuntil(b'"state":"running"}\n\n'), 30.0
                )
                _, view = await request(port, "GET", f"/v1/jobs/{job_id}")
                assert view["state"] == "running"
                release.set()
                live = await asyncio.wait_for(reader.read(), 60.0)
                writer.close()
                await writer.wait_closed()

                head, _, body = (backlog + live).partition(b"\r\n\r\n")
                assert b"text/event-stream" in head
                frames = parse_sse(body.decode("utf-8"))
                assert [(f[0], f[1].get("state")) for f in frames] == [
                    ("state", "queued"),
                    ("state", "running"),
                    ("state", "done"),
                    ("end", "done"),
                ]
                assert [f[2] for f in frames] == [1, 2, 3, 4]
                assert [f[0] for f in parse_sse(live.decode("utf-8"))] == [
                    "state", "end",
                ]
                # A read after the end replays the same frames.
                assert await stream_events(port, job_id) == frames

    asyncio.run(scenario())


def test_sweep_job_envelope_and_progress_frames():
    async def scenario():
        async with running_server() as server:
            payload = {
                "name": "faceoff",
                "base": TINY,
                "axes": {"protocol": ["grid", "ecgrid"]},
            }
            status, view = await request(
                server.port, "POST", "/v1/jobs",
                {"kind": "sweep", "payload": payload},
            )
            assert status == 201
            frames = await stream_events(server.port, view["job_id"])
            kinds = [f[0] for f in frames]
            assert kinds.count("progress") == 2
            assert kinds[-1] == "end"

            status, record = await request(
                server.port, "GET", f"/v1/jobs/{view['job_id']}/result"
            )
            assert status == 200
            assert record["schema"] == 3
            assert record["kind"] == "sweep"
            assert record["executed"] == 2
            axes = {o["axes"]["protocol"] for o in record["outcomes"]}
            assert axes == {"grid", "ecgrid"}
            assert all(
                o["result"]["kind"] == "result" for o in record["outcomes"]
            )

    asyncio.run(scenario())


def test_error_statuses():
    async def scenario():
        async with running_server() as server:
            port = server.port
            # unknown job -> 404
            status, body = await request(port, "GET", "/v1/jobs/nope")
            assert status == 404 and body["status"] == 404
            # unknown route -> 404
            status, _ = await request(port, "GET", "/v99/nope")
            assert status == 404
            # wrong method -> 405
            status, _ = await request(port, "DELETE", "/v1/jobs")
            assert status == 405
            # malformed JSON -> 400
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                b"POST /v1/jobs HTTP/1.1\r\nhost: t\r\n"
                b"content-length: 3\r\n\r\n{{{"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            assert b" 400 " in raw.split(b"\r\n")[0] + b" "
            # bad submit body -> 400 with detail
            status, body = await request(
                port, "POST", "/v1/jobs", {"kind": "banana", "payload": {}}
            )
            assert status == 400
            assert "banana" in body["detail"]

    asyncio.run(scenario())


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_malformed_content_length_is_400(length):
    # Both used to answer 500: ``int()`` rejected the first, and
    # ``readexactly`` the second.
    async def scenario():
        async with running_server() as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /v1/jobs HTTP/1.1\r\nhost: t\r\n"
                + f"content-length: {length}\r\n\r\n".encode()
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.split()[1] == b"400"
            assert "content-length" in json.loads(body)["detail"]

    asyncio.run(scenario())


def test_oversized_body_is_413():
    # Used to read back nothing: the oversized length was turned into
    # an IncompleteReadError, which the connection handler swallows.
    from repro.serve.app import MAX_BODY_BYTES

    async def scenario():
        async with running_server() as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /v1/jobs HTTP/1.1\r\nhost: t\r\n"
                b"content-length: 5000000\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.split()[1:3] == [b"413", b"Payload"]
            assert str(MAX_BODY_BYTES) in json.loads(body)["detail"]

    asyncio.run(scenario())


def test_tenant_header_and_quota_429(monkeypatch):
    async def scenario():
        with gated_api_run(monkeypatch):
            async with running_server() as server:
                port = server.port
                codes = []
                for seed in range(6):
                    status, body = await request(
                        port, "POST", "/v1/jobs",
                        {
                            "kind": "run",
                            "payload": {**TINY, "seed": 100 + seed},
                        },
                        headers={"x-tenant": "alice"},
                    )
                    codes.append(status)
                    if status == 201:
                        assert body["tenant"] == "alice"
                # default quota is 4 active per tenant
                assert codes == [201, 201, 201, 201, 429, 429]
                status, listing = await request(
                    port, "GET", "/v1/jobs?tenant=alice"
                )
                assert status == 200
                assert len(listing["jobs"]) == 4

    asyncio.run(scenario())


def test_cancel_endpoints(monkeypatch):
    async def scenario():
        with gated_api_run(monkeypatch) as (started, release):
            async with running_server(concurrency=1) as server:
                port = server.port
                _, blocker = await request(
                    port, "POST", "/v1/jobs", {"kind": "run", "payload": TINY}
                )
                started.wait(30.0)
                _, queued = await request(
                    port, "POST", "/v1/jobs",
                    {"kind": "run", "payload": {**TINY, "seed": 77}},
                )
                # POST .../cancel
                status, view = await request(
                    port, "POST", f"/v1/jobs/{queued['job_id']}/cancel"
                )
                assert status == 200 and view["state"] == "cancelled"
                # result of a cancelled job -> 409
                status, body = await request(
                    port, "GET", f"/v1/jobs/{queued['job_id']}/result"
                )
                assert status == 409
                # DELETE alias works too
                status, view = await request(
                    port, "DELETE", f"/v1/jobs/{blocker['job_id']}"
                )
                assert status == 200

    asyncio.run(scenario())


def test_cache_hit_fast_path_over_http(tmp_path):
    async def scenario():
        async with running_server(
            no_cache=False, cache_dir=str(tmp_path)
        ) as server:
            port = server.port
            body = {"kind": "run", "payload": TINY}
            status, first = await request(port, "POST", "/v1/jobs", body)
            assert status == 201
            await stream_events(port, first["job_id"])  # wait for done

            status, second = await request(port, "POST", "/v1/jobs", body)
            assert status == 201
            assert second["state"] == "done"
            assert second["cache_hit"] is True
            status, health = await request(port, "GET", "/healthz")
            assert health["cache"]["hits"] >= 1
            # the cached record serves immediately
            status, record = await request(
                port, "GET", f"/v1/jobs/{second['job_id']}/result"
            )
            assert status == 200 and record["kind"] == "result"

    asyncio.run(scenario())


@pytest.mark.tier2
def test_figure_job_over_http():
    async def scenario():
        async with running_server() as server:
            port = server.port
            status, view = await request(
                port, "POST", "/v1/jobs",
                {
                    "kind": "figure",
                    "payload": {"name": "fig4", "scale": 0.08, "seed": 3},
                },
            )
            assert status == 201
            await stream_events(port, view["job_id"])
            status, record = await request(
                port, "GET", f"/v1/jobs/{view['job_id']}/figure"
            )
            assert status == 200
            assert record["kind"] == "figure"
            assert record["figure_id"] == "fig4"
            assert "ecgrid" in record["series"]
            # /figure on a non-figure job is a 409 (tested in route unit)

    asyncio.run(scenario())


def test_figure_route_on_run_job_is_409(monkeypatch):
    async def scenario():
        with gated_api_run(monkeypatch):
            async with running_server() as server:
                port = server.port
                _, view = await request(
                    port, "POST", "/v1/jobs", {"kind": "run", "payload": TINY}
                )
                status, body = await request(
                    port, "GET", f"/v1/jobs/{view['job_id']}/figure"
                )
                assert status == 409
                assert "not a figure" in body["detail"]

    asyncio.run(scenario())
