"""One ``JobServer`` for the serve-mix workload, in its own process.

Usage: ``serve_host.py --cache-dir DIR [--trace PATH]``.

Prints ``ready <port>`` once it listens on an ephemeral localhost port
and serves until SIGTERM, with two executor threads (one per core of the
machine the benchmark is sized for).  With ``--trace`` the benchmark's
layer wrappers are installed in this process before the server exists,
and their snapshot and spans are written to PATH at shutdown.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
from pathlib import Path
from typing import Optional

from repro.serve.app import JobServer, ServerConfig

from layers import Layers


async def serve(cache_dir: str) -> None:
    server = JobServer(
        ServerConfig(host="127.0.0.1", port=0, concurrency=2, cache_dir=cache_dir)
    )
    await server.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(f"ready {server.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", type=Path)
    args = parser.parse_args()
    layers: Optional[Layers] = Layers().install() if args.trace else None
    try:
        asyncio.run(serve(args.cache_dir))
    finally:
        if layers is not None:
            layers.remove()
            snap = layers.snapshot()
            snap["spans"] = layers.spans
            args.trace.write_text(json.dumps(snap, default=str))


if __name__ == "__main__":
    main()
