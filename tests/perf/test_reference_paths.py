"""The kernel's fast paths against the plain code they skip, under faults.

Cell-indexed carrier sense skips work that a plainer path in the same
kernel still does: below ``TX_SCAN_CUTOFF`` it runs the active-list
scan.  Forcing every query onto that path must leave a faulted run —
crashes, partitions, page loss and drains — bit-for-bit unchanged.
(The medium's per-cell buckets have no plainer twin;
``tests/properties/test_near_cache.py`` checks them against a
brute-force scan instead.)
"""

import math

from repro.experiments.config import ExperimentConfig
from repro.faults.plan import standard_fault_plan
from repro.perf.trace import golden_run
from repro.phy.medium import Medium

CONFIG = ExperimentConfig(
    protocol="ecgrid", n_hosts=24, width_m=500.0, height_m=500.0,
    sim_time_s=60.0, n_flows=4, max_speed_mps=2.0,
    initial_energy_j=40.0, seed=2,
    faults=standard_fault_plan(
        0.5, sim_time_s=60.0, width_m=500.0, height_m=500.0,
        n_hosts=24, initial_energy_j=40.0,
    ),
)


def test_plain_paths_reproduce_the_fast_paths_under_faults(monkeypatch):
    # Probe the carrier-sense cell index at any load, not just above
    # the cutoff this small scenario never reaches.
    monkeypatch.setattr(Medium, "TX_SCAN_CUTOFF", 0)
    fast = golden_run(CONFIG)[:2]

    monkeypatch.setattr(Medium, "TX_SCAN_CUTOFF", math.inf)
    assert golden_run(CONFIG)[:2] == fast
