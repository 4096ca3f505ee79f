"""Load smoke: N concurrent clients against a cold then warm cache.

Every client must get a valid, schema-versioned result in both phases,
and the warm phase must be answered from the cache at submit time.
Served-job latency is measured by the benchmark's serve-mix workload
(``python3 bench/run.py --workload serve-mix``).
"""

import asyncio
import json
import time

from repro.serve.app import JobServer, ServerConfig

CLIENTS = 4

TINY = {
    "protocol": "grid", "n_hosts": 8, "width_m": 300.0, "height_m": 300.0,
    "n_flows": 2, "sim_time_s": 20.0, "initial_energy_j": 50.0,
}


async def _request(port, method, path, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    writer.write(
        f"{method} {path} HTTP/1.1\r\nhost: t\r\n"
        f"content-length: {len(payload)}\r\n\r\n".encode() + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body) if body else None


async def _client(port, seed):
    """Submit one run job and follow it to its result record."""
    status, view = await _request(
        port, "POST", "/v1/jobs",
        {"kind": "run", "payload": {**TINY, "seed": seed}},
    )
    assert status == 201, view
    job_id = view["job_id"]
    while view["state"] not in ("done", "failed", "cancelled"):
        await asyncio.sleep(0.02)
        status, view = await _request(port, "GET", f"/v1/jobs/{job_id}")
    assert view["state"] == "done", view
    status, record = await _request(port, "GET", f"/v1/jobs/{job_id}/result")
    assert status == 200
    assert record["schema"] == 3 and record["kind"] == "result"
    return view


async def _phase(port, seeds):
    t0 = time.perf_counter()
    views = await asyncio.gather(*(_client(port, s) for s in seeds))
    return time.perf_counter() - t0, views


def test_load_smoke_cold_then_warm_cache(tmp_path):
    async def scenario():
        server = JobServer(ServerConfig(
            port=0,
            cache_dir=str(tmp_path / "cache"),
            concurrency=CLIENTS,
            max_active_per_tenant=2 * CLIENTS,
        ))
        await server.start()
        try:
            seeds = list(range(1, CLIENTS + 1))
            cold_s, cold_views = await _phase(server.port, seeds)
            warm_s, warm_views = await _phase(server.port, seeds)
            return cold_s, cold_views, warm_s, warm_views
        finally:
            await server.stop()

    cold_s, cold_views, warm_s, warm_views = asyncio.run(scenario())

    # cold: every client simulated; warm: every client answered from
    # the cache at submit time, so the warm phase never simulates
    assert not any(v["cache_hit"] for v in cold_views)
    assert all(v["cache_hit"] for v in warm_views)
    assert warm_s < cold_s
