"""A job stream under concurrent publishers: every frame once, in id order."""

import asyncio
import sys
import threading

from repro.serve.events import JobStream


def test_concurrent_publishers_reach_a_live_subscriber_in_id_order():
    ring, threads_n, per_thread = 64, 8, 500
    total = threads_n * per_thread
    stream = JobStream("j", ring=ring)

    def publish(k):
        for i in range(per_thread):
            stream.publish("progress", {"k": k, "i": i})

    async def scenario():
        backlog, queue = stream.subscribe()
        assert backlog == []
        threads = [
            threading.Thread(target=publish, args=(k,))
            for k in range(threads_n)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                await asyncio.to_thread(t.join, 30.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        stream.close()
        frames = []
        while True:
            frame = await asyncio.wait_for(queue.get(), 30.0)
            if frame is None:
                return frames
            frames.append(frame)

    frames = asyncio.run(scenario())
    assert [f[2] for f in frames] == list(range(1, total + 1))
    for k in range(threads_n):
        mine = [f[1]["i"] for f in frames if f[1]["k"] == k]
        assert mine == list(range(per_thread))
    # The replay ring kept the newest frames and counted every eviction.
    history = stream.history()
    assert history[0][1]["dropped"] == stream.evicted == total - ring
    assert [f[2] for f in history[1:]] == list(range(total - ring + 1, total + 1))
