"""Per-host memory of a built network.

A large run's peak memory is mostly per-host state, so this bounds what
one host costs.  A host measures 15.8-16.1 KB on Python 3.10-3.13, 7.7 KB
of it the three fixed-size RNG streams.  It measured 19.0-21.0 KB with
a dispatch table per protocol instance, more instance attributes than
CPython keeps inline (29) and preallocated empty seen-RREQ and local
queues; the bound sits between the two.  A new per-host container
should be shared per class or allocated on first use
(docs/performance.md, ground rule 6).
"""

import gc
import tracemalloc

from repro.api import ExperimentConfig, build_network

HOSTS = 300
BYTES_PER_HOST_BOUND = 17_500


def test_ecgrid_host_footprint_is_bounded():
    side = 100.0 * HOSTS ** 0.5  # the paper's 100 hosts per km^2
    config = ExperimentConfig(
        protocol="ecgrid", n_hosts=HOSTS, width_m=side, height_m=side,
        n_flows=6, sim_time_s=3.0, seed=5,
    )
    build_network(config).close()  # first-use caches are not per-host state
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        network = build_network(config)
        per_host = (tracemalloc.get_traced_memory()[0] - before) / HOSTS
    finally:
        tracemalloc.stop()
    assert len(network.nodes) == HOSTS
    network.close()
    assert per_host < BYTES_PER_HOST_BOUND, (
        f"{per_host:.0f} B per host (bound {BYTES_PER_HOST_BOUND})"
    )
