"""Space-parallel sharded execution.

The plane is partitioned into vertical bands of whole grid columns;
each band is simulated by a :class:`~repro.shard.region.Region` that
owns its hosts' DES state (calendar, medium cell index, RNG streams,
battery settlement) outright.  Regions exchange
boundary-crossing transmissions, RAS pages and mobility handoffs
through a :class:`~repro.shard.region.RegionBus` once per
synchronization window.  See ``docs/architecture.md`` ("Sharded
execution") for the model and its accuracy contract.
"""

from repro.shard.region import Region, RegionBus, ShardMap
from repro.shard.runner import run_sharded

__all__ = [
    "Region",
    "RegionBus",
    "ShardMap",
    "run_sharded",
]
