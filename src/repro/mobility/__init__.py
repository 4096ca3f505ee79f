"""Mobility models.

All models expose trajectories as piecewise-linear *segments*; positions,
velocities, grid-cell crossing times and dwell estimates are computed in
closed form from the segments — there is no per-timestep position loop
anywhere in the simulator.
"""

from repro._lazy import lazy_exports

#: Exported name -> the module that defines it, resolved on first use
#: (PEP 562), so a random-waypoint run loads no other model.
_EXPORTS = {
    "MobilityModel": "repro.mobility.base",
    "Segment": "repro.mobility.base",
    "next_cell_crossing": "repro.mobility.base",
    "RandomWaypoint": "repro.mobility.waypoint",
    "RandomDirection": "repro.mobility.direction",
    "StaticPosition": "repro.mobility.static",
    "TraceMobility": "repro.mobility.trace",
    "record_trace": "repro.mobility.trace",
    "estimate_dwell_time": "repro.mobility.dwell",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
